package dynamic

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Maintainer maintains the greedy MIS or the greedy MM of a mutating
// graph. Construct one with NewMIS or NewMM (which run the initial
// computation with the library's prefix round loops), then feed it
// batches of edge updates with Apply; after every successful Apply the
// maintained answer is bit-identical to a from-scratch sequential
// greedy run on the mutated graph under the same priorities.
//
// A Maintainer is not safe for concurrent use: it owns its overlay,
// solution state and repair scratch (the service layer checks sessions
// out of its cache while a worker advances them).
type Maintainer struct {
	ov     overlay
	grain  int
	broken bool

	// Exactly one of mis and mm is set.
	mis *misState
	mm  *mmState

	init core.Stats
}

// NewMIS builds a Maintainer of the greedy MIS of g under the vertex
// order ord. g must stay immutable for the Maintainer's lifetime (the
// overlay aliases it); parents, if non-nil, are g's rank-space parent
// lists under ord (core.Options.Parents), which the initial computation
// reads instead of building its own; grain is the parallel-loop grain
// of the initial computation and the repair rounds, 0 for the library
// default. The initial computation honors ctx; no usable Maintainer is
// returned on cancellation.
func NewMIS(ctx context.Context, g *graph.Graph, ord core.Order, parents *core.Parents, grain int) (*Maintainer, error) {
	if ord.Len() != g.NumVertices() {
		return nil, fmt.Errorf("dynamic: order has %d items, graph has %d vertices", ord.Len(), g.NumVertices())
	}
	mt := &Maintainer{ov: newOverlay(g), grain: grain}
	var err error
	if mt.mis, mt.init, err = newMISState(ctx, &mt.ov, ord, parents, grain); err != nil {
		return nil, err
	}
	return mt, nil
}

// NewMM builds a Maintainer of the greedy maximal matching of g under
// the churn-stable edge priorities EdgePriority derives from seed. g,
// grain and ctx are as for NewMIS.
func NewMM(ctx context.Context, g *graph.Graph, seed uint64, grain int) (*Maintainer, error) {
	mt := &Maintainer{ov: newOverlay(g), grain: grain}
	var err error
	if mt.mm, mt.init, err = newMMState(ctx, g, seed, grain); err != nil {
		return nil, err
	}
	return mt, nil
}

// Apply validates the batch, applies it, and repairs the maintained
// answer by draining the change-driven priority frontier. The batch is
// atomic: an invalid batch (ErrBadUpdate) changes nothing. A ctx
// cancellation observed mid-repair leaves the state inconsistent; the
// Maintainer marks itself broken and every later call returns
// ErrBroken.
func (mt *Maintainer) Apply(ctx context.Context, batch []Update) (RepairStats, error) {
	if mt.broken {
		return RepairStats{}, ErrBroken
	}
	if err := ctx.Err(); err != nil {
		return RepairStats{}, err
	}
	var stats RepairStats
	var err error
	if stats.Added, stats.Removed, err = mt.ov.apply(batch); err != nil {
		return stats, err
	}
	if mt.mis != nil {
		stats.MIS, err = mt.mis.repair(ctx, batch, mt.grain)
	} else {
		stats.MM, err = mt.mm.repair(ctx, batch, mt.grain)
	}
	if err != nil {
		mt.broken = true
		return stats, err
	}
	if float64(mt.ov.churn) > churnFrac*float64(2*mt.ov.m)+1 {
		mt.ov.compact()
		stats.Compacted = true
	}
	return stats, nil
}

// ApplyToGraph validates batch against g and returns the mutated graph
// as a fresh CSR, plus the insert/delete counts. It is the
// solution-free subset of a Maintainer — the service's graph registry
// uses it to derive new content-addressed graph versions from PATCH
// requests without maintaining any solution.
func ApplyToGraph(g *graph.Graph, batch []Update) (*graph.Graph, int, int, error) {
	ov := newOverlay(g)
	added, removed, err := ov.apply(batch)
	if err != nil {
		return nil, 0, 0, err
	}
	return ov.materialize(), added, removed, nil
}

// NumVertices returns the (fixed) vertex count.
func (mt *Maintainer) NumVertices() int { return mt.ov.n }

// NumEdges returns the current undirected edge count.
func (mt *Maintainer) NumEdges() int { return mt.ov.m }

// Graph returns the current graph as an immutable CSR: the shared base
// when no deltas are outstanding, otherwise a fresh materialization.
func (mt *Maintainer) Graph() *graph.Graph { return mt.ov.graphView() }

// InitStats returns the cost counters of the initial computation.
func (mt *Maintainer) InitStats() core.Stats { return mt.init }

// MISResult returns the current MIS (nil for a matching Maintainer).
// The returned Result is a snapshot; later Applies do not modify it.
func (mt *Maintainer) MISResult() *core.Result {
	if mt.mis == nil {
		return nil
	}
	return mt.mis.result()
}

// MatchingPairs returns the current matching as canonical edges sorted
// lexicographically (nil for an MIS Maintainer).
func (mt *Maintainer) MatchingPairs() []graph.Edge {
	if mt.mm == nil {
		return nil
	}
	return mt.mm.pairs()
}
