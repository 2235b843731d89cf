package dynamic

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Maintainer maintains greedy MIS and/or MM solutions of a mutating
// graph. Construct one with NewMaintainer (which runs the initial
// computation with the library's prefix round loops), then feed it
// batches of edge updates with Apply; after every successful Apply the
// exposed solutions are bit-identical to a from-scratch sequential
// greedy run on the mutated graph under the same priorities.
//
// A Maintainer is not safe for concurrent use: it owns its overlay,
// solution state and repair scratch (the service layer checks sessions
// out of its cache while a worker advances them).
type Maintainer struct {
	ov     overlay
	grain  int
	broken bool

	mis *misState
	mm  *mmState

	initMIS core.Stats
	initMM  core.Stats
}

// NewMaintainer builds a Maintainer over g (which must be immutable
// for the Maintainer's lifetime; the overlay aliases it). The initial
// solutions honor ctx; no usable Maintainer is returned on
// cancellation.
func NewMaintainer(ctx context.Context, g *graph.Graph, cfg Config) (*Maintainer, error) {
	if !cfg.MIS && !cfg.MM {
		cfg.MIS, cfg.MM = true, true
	}
	mt := &Maintainer{ov: newOverlay(g), grain: cfg.Grain}
	if cfg.MIS {
		n := g.NumVertices()
		var ord core.Order
		if cfg.Order != nil {
			if cfg.Order.Len() != n {
				return nil, fmt.Errorf("dynamic: order has %d items, graph has %d vertices", cfg.Order.Len(), n)
			}
			ord = *cfg.Order
		} else {
			ord = core.NewRandomOrder(n, cfg.Seed)
		}
		ms, stats, err := newMISState(ctx, &mt.ov, ord, cfg.Grain)
		if err != nil {
			return nil, err
		}
		mt.mis, mt.initMIS = ms, stats
	}
	if cfg.MM {
		ms, stats, err := newMMState(ctx, g, cfg.Seed, cfg.Grain)
		if err != nil {
			return nil, err
		}
		mt.mm, mt.initMM = ms, stats
	}
	return mt, nil
}

// Apply validates the batch, applies it, and repairs the maintained
// solutions by draining the change-driven priority frontier. The batch
// is atomic: an invalid batch (ErrBadUpdate) changes nothing. A ctx
// cancellation observed mid-repair leaves the state inconsistent; the
// Maintainer marks itself broken and every later call returns
// ErrBroken.
//
//lint:allow ctxround the overlay-edit loop must complete atomically once validation passes (aborting mid-batch would corrupt the overlay); the long-running work is the repair drains, which check ctx once per round
func (mt *Maintainer) Apply(ctx context.Context, batch []Update) (RepairStats, error) {
	if mt.broken {
		return RepairStats{}, ErrBroken
	}
	if err := ctx.Err(); err != nil {
		return RepairStats{}, err
	}
	stats := RepairStats{}
	if err := mt.validate(batch); err != nil {
		return stats, err
	}
	for _, up := range batch {
		u, v := canonical(up.U, up.V)
		if up.Op == OpAdd {
			mt.ov.addEdge(u, v)
			stats.Added++
		} else {
			mt.ov.delEdge(u, v)
			stats.Removed++
		}
	}
	if mt.mis != nil {
		cost, err := mt.mis.repair(ctx, batch, mt.grain)
		stats.MIS = cost
		if err != nil {
			mt.broken = true
			return stats, err
		}
	}
	if mt.mm != nil {
		cost, err := mt.mm.repair(ctx, batch, mt.grain)
		stats.MM = cost
		if err != nil {
			mt.broken = true
			return stats, err
		}
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
	mt := &Maintainer{ov: newOverlay(g)}
	if err := mt.validate(batch); err != nil {
		return nil, 0, 0, err
	}
	added, removed := 0, 0
	for _, up := range batch {
		u, v := canonical(up.U, up.V)
		if up.Op == OpAdd {
			mt.ov.addEdge(u, v)
			added++
		} else {
			mt.ov.delEdge(u, v)
			removed++
		}
	}
	return mt.ov.materialize(), added, removed, nil
}

func canonical(u, v graph.Vertex) (graph.Vertex, graph.Vertex) {
	if u > v {
		return v, u
	}
	return u, v
}

// validate checks the whole batch against the current graph and
// rejects it wholesale on the first violation.
func (mt *Maintainer) validate(batch []Update) error {
	var seen map[uint64]struct{}
	if len(batch) > 1 {
		seen = make(map[uint64]struct{}, len(batch))
	}
	n := int32(mt.ov.n)
	for i, up := range batch {
		if up.Op != OpAdd && up.Op != OpDel {
			return fmt.Errorf("%w: update %d has unknown op %d", ErrBadUpdate, i, up.Op)
		}
		if up.U < 0 || up.U >= n || up.V < 0 || up.V >= n {
			return fmt.Errorf("%w: update %d: edge {%d,%d} out of range [0,%d)", ErrBadUpdate, i, up.U, up.V, n)
		}
		if up.U == up.V {
			return fmt.Errorf("%w: update %d: self loop at vertex %d", ErrBadUpdate, i, up.U)
		}
		u, v := canonical(up.U, up.V)
		if seen != nil {
			key := uint64(uint32(u))<<32 | uint64(uint32(v))
			if _, dup := seen[key]; dup {
				return fmt.Errorf("%w: update %d: edge {%d,%d} appears twice in one batch", ErrBadUpdate, i, u, v)
			}
			seen[key] = struct{}{}
		}
		present := mt.ov.hasEdge(u, v)
		if up.Op == OpAdd && present {
			return fmt.Errorf("%w: update %d inserts existing edge {%d,%d}", ErrBadUpdate, i, u, v)
		}
		if up.Op == OpDel && !present {
			return fmt.Errorf("%w: update %d deletes missing edge {%d,%d}", ErrBadUpdate, i, u, v)
		}
	}
	return nil
}

// NumVertices returns the (fixed) vertex count.
func (mt *Maintainer) NumVertices() int { return mt.ov.n }

// NumEdges returns the current undirected edge count.
func (mt *Maintainer) NumEdges() int { return mt.ov.m }

// HasEdge reports whether {u, v} is currently present.
func (mt *Maintainer) HasEdge(u, v graph.Vertex) bool {
	cu, cv := canonical(u, v)
	if cu < 0 || int(cv) >= mt.ov.n || cu == cv {
		return false
	}
	return mt.ov.hasEdge(cu, cv)
}

// Graph returns the current graph as an immutable CSR: the shared base
// when no deltas are outstanding, otherwise a fresh materialization.
func (mt *Maintainer) Graph() *graph.Graph { return mt.ov.graphView() }

// Order returns the MIS vertex order, or a zero Order when MIS is not
// maintained.
func (mt *Maintainer) Order() core.Order {
	if mt.mis == nil {
		return core.Order{}
	}
	return mt.mis.ord
}

// InitStats returns the cost counters of the initial from-scratch
// computations (zero for problems not maintained).
func (mt *Maintainer) InitStats() (mis, mm core.Stats) { return mt.initMIS, mt.initMM }

// MISResult returns the current MIS (nil when MIS is not maintained).
// The returned Result is a snapshot; later Applies do not modify it.
func (mt *Maintainer) MISResult() *core.Result {
	if mt.mis == nil {
		return nil
	}
	return mt.mis.result()
}

// MatchingPairs returns the current matching as canonical edges sorted
// lexicographically (nil when MM is not maintained).
func (mt *Maintainer) MatchingPairs() []graph.Edge {
	if mt.mm == nil {
		return nil
	}
	return mt.mm.pairs()
}

// Mate returns a copy of the current mate array (mate[v] = matched
// partner of v, or -1), or nil when MM is not maintained.
func (mt *Maintainer) Mate() []int32 {
	if mt.mm == nil {
		return nil
	}
	return mt.mm.mateCopy()
}
