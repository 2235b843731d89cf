package core

import (
	"repro/internal/engine"
	"repro/internal/graph"
)

// Vertex statuses shared by all MIS implementations. A status is
// monotone: it moves from undecided to exactly one of in/out and never
// changes again — the invariant that makes the optimistic parallel
// attempts safe (a vertex only enters the MIS after observing final
// "out" for every earlier neighbor). The values deliberately coincide
// with the engine's Undecided/Committed/Dropped outcome codes, so the
// prefix loop's per-round outcome array and the status array speak the
// same language.
const (
	statusUndecided = engine.Undecided
	statusIn        = engine.Committed
	statusOut       = engine.Dropped
)

// Stats records machine-independent cost measures of a run, the
// quantities plotted by the paper's Figures 1 and 2. It is the
// engine's Stats type; see engine.Stats for the field conventions.
type Stats = engine.Stats

// RoundStat describes one completed round of a round-synchronous
// algorithm, passed to Options.OnRound; see engine.RoundStat.
type RoundStat = engine.RoundStat

// Result is the outcome of an MIS computation.
type Result struct {
	// InSet[v] reports whether vertex v is in the independent set.
	InSet []bool
	// Set lists the members of the independent set in increasing vertex
	// order.
	Set []graph.Vertex
	// Stats are the cost counters of the run.
	Stats Stats
}

// newResult builds the result from the final statuses: status[r] is the
// status of vertex order[r] (order nil means status is vertex-indexed).
// Besides the Result itself it allocates only what engine.Members does.
func newResult(status, order []int32, stats Stats) *Result {
	in, set := engine.Members(status, order)
	return &Result{InSet: in, Set: set, Stats: stats}
}

// Size returns the number of vertices in the set.
func (r *Result) Size() int { return len(r.Set) }

// Equal reports whether two results select exactly the same set.
func (r *Result) Equal(other *Result) bool {
	if len(r.Set) != len(other.Set) {
		return false
	}
	for i := range r.Set {
		if r.Set[i] != other.Set[i] {
			return false
		}
	}
	return true
}

// Options configures the parallel MIS algorithms. The embedded engine
// options hold the knobs every problem shares — window (PrefixSize,
// PrefixFrac, Adaptive), Grain, the OnRound observer and the phase
// Clock; see engine.Options. PrefixFrac = 1 processes the whole
// remaining input each round (maximum parallelism, maximum redundant
// work) and prefix size 1 degenerates to the sequential algorithm; the
// window knobs are ignored by the non-prefix algorithms, while Grain
// and OnRound also drive the root-set and Luby rounds. Results are
// bit-identical under every window schedule: the window changes only
// how many of the earliest unresolved iterates run per round, never
// their order.
type Options struct {
	engine.Options
	// Pointered enables the parent-pointer optimization of Lemma 4.1:
	// each iterate resumes scanning its earlier neighbors where the
	// previous attempt stalled instead of rescanning from scratch. The
	// default (false) matches the PBBS implementation the paper measures
	// and its work curve.
	Pointered bool
	// Parents, if non-nil, are the rank-space parent lists of the input
	// graph under the run's order (see Parents.Build: row r holds the
	// ranks of the earlier neighbors of the vertex of rank r), reused by
	// PrefixMIS, SequentialMIS and RootSetMIS instead of building them
	// per run. They must match the graph and order passed with these
	// options.
	Parents *Parents
	// Workspace, if non-nil, supplies pooled per-run buffers reused
	// across runs (see Workspace). nil means allocate fresh buffers.
	Workspace *Workspace
}
