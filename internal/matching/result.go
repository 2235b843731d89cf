// Package matching implements the paper's maximal matching (MM)
// algorithms: the sequential greedy algorithm over a random edge order,
// the prefix-based parallel algorithm (Algorithm 4 executed on prefixes
// via deterministic reservations), the linear-work root-set
// implementation with mmCheck on priority-ordered incident-edge lists
// (Lemma 5.3), a reference reduction through MIS on the line graph
// (Lemma 5.1), and an exact dependence-length analyzer.
//
// All deterministic algorithms are parameterized by a core.Order over
// edge identifiers and return exactly the matching the sequential greedy
// algorithm produces for that order, at any thread count and prefix
// size.
package matching

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// Edge statuses; monotone undecided -> {in, out} exactly once, with
// the values shared with the engine's outcome codes.
const (
	statusUndecided = engine.Undecided
	statusIn        = engine.Committed
	statusOut       = engine.Dropped
)

// unmatched marks a vertex with no mate.
const unmatched int32 = -1

// Stats reuses the core counters: Rounds, Attempts (the paper's "total
// work" for MM, with a sequential run attempting each edge once),
// EdgeInspections and PrefixSize.
type Stats = core.Stats

// Result is the outcome of a maximal matching computation.
type Result struct {
	// InMatching[e] reports whether edge e (an index into the EdgeList)
	// is part of the matching.
	InMatching []bool
	// Pairs lists the matched edges in increasing edge-id order.
	Pairs []graph.Edge
	// Stats are the cost counters of the run.
	Stats Stats
}

// bitsResult builds the result around in, the per-edge matched bits,
// which it takes over.
func bitsResult(el graph.EdgeList, in []bool, stats Stats) *Result {
	return pairsResult(el, in, engine.Trues(in), stats)
}

// pairsResult builds the result around in, the per-edge matched bits,
// and ids, the matched edge ids in increasing order; it takes both over.
func pairsResult(el graph.EdgeList, in []bool, ids []int32, stats Stats) *Result {
	pairs := make([]graph.Edge, len(ids))
	for i, id := range ids {
		pairs[i] = el.Edges[id]
	}
	return &Result{InMatching: in, Pairs: pairs, Stats: stats}
}

// Size returns the number of matched edges.
func (r *Result) Size() int { return len(r.Pairs) }

// Equal reports whether two results select exactly the same edge set.
func (r *Result) Equal(other *Result) bool {
	if len(r.InMatching) != len(other.InMatching) {
		return false
	}
	for i := range r.InMatching {
		if r.InMatching[i] != other.InMatching[i] {
			return false
		}
	}
	return true
}

// Options configures the parallel matching algorithms: the engine's
// window, grain and telemetry knobs (see engine.Options; PrefixSize and
// PrefixFrac count edges), the rank-gathered edges and the pooled
// workspace. The matching stays bit-identical to the sequential greedy
// one for every window schedule.
type Options struct {
	engine.Options
	// Edges, if non-nil, are the input's edges gathered into rank order
	// (see graph.EdgeList.GatherByRank: Edges[r] is the edge of rank r),
	// reused by PrefixMM, SequentialMM and RootSetMM instead of
	// gathering them per run. Runs only read them. They must match the
	// edge list and order passed with these options.
	Edges []graph.Edge
	// Workspace, if non-nil, supplies pooled per-run buffers reused
	// across runs. nil means allocate fresh buffers.
	Workspace *Workspace
}
