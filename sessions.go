package greedy

import (
	"context"

	"repro/internal/dynamic"
)

// Dynamic-graph sessions: incremental maintenance of MIS and MM under
// edge churn. A session wraps an internal/dynamic.Maintainer: it owns
// a mutable overlay over the (immutable) input graph and, on every
// Apply, drains a change-driven priority frontier — seeded only by the
// directly-perturbed items, expanding to an item's later neighbors
// only when the item's membership actually flipped — instead of
// recomputing, with results bit-identical to a from-scratch run on the
// mutated graph. See Solver.MISDynamic and Solver.MMDynamic.

// Re-exported dynamic types, so session callers need not import
// internal packages.
type (
	// DynamicUpdate is one edge insertion or deletion.
	DynamicUpdate = dynamic.Update
	// DynamicOp is the kind of a DynamicUpdate.
	DynamicOp = dynamic.Op
	// RepairStats reports the per-batch repair work of a session Apply
	// in frontier terms: Seeds (directly-perturbed items enqueued),
	// Visited (distinct items re-decided), Flipped (membership flips
	// propagated), FrontierPeak (pending-frontier high-water mark),
	// Changed (net memberships changed), plus the decide-loop
	// Rounds/Attempts/Inspections counters. Visited == Changed-ish
	// small is the paper's locality claim at work; Visited >> Changed
	// would mean repair is re-deriving unchanged decisions.
	RepairStats = dynamic.RepairStats
	// RepairCost is the per-problem component of RepairStats.
	RepairCost = dynamic.RepairCost
)

// DynamicUpdate operations.
const (
	// OpAdd inserts an edge that must not be present.
	OpAdd = dynamic.OpAdd
	// OpDel deletes an edge that must be present.
	OpDel = dynamic.OpDel
)

// MISSession maintains a maximal independent set under edge churn.
// Obtain one from Solver.MISDynamic; it is not safe for concurrent
// use.
type MISSession struct {
	mt *dynamic.Maintainer
}

// MISDynamic computes the MIS of g and returns a session that
// maintains it under edge updates. The priority order is the same one
// Solver.MIS uses for the configured seed (or WithOrder), so the
// session's result always equals what a from-scratch MIS run on the
// current graph would return. The initial computation honors ctx;
// AlgoLuby has no maintainable order and is reported as
// ErrDynamicUnsupported.
func (s *Solver) MISDynamic(ctx context.Context, g *Graph, opts ...Option) (*MISSession, error) {
	mt, err := s.maintainer(ctx, ProblemMIS, g, opts)
	if err != nil {
		return nil, err
	}
	return &MISSession{mt: mt}, nil
}

// maintainer checks opts as a dynamic plan of p and computes p's
// maintained state on g (MIS under the order Solver.MIS uses).
func (s *Solver) maintainer(ctx context.Context, p Problem, g *Graph, opts []Option) (*dynamic.Maintainer, error) {
	c := s.config(opts)
	c.dynamic = true
	if err := c.check(p); err != nil {
		return nil, err
	}
	cfg := dynamic.Config{MIS: p == ProblemMIS, MM: p == ProblemMM, Seed: c.seed, Grain: c.grain}
	if cfg.MIS {
		ord, err := s.orderFor(c, g.NumVertices())
		if err != nil {
			return nil, err
		}
		cfg.Order = &ord
	}
	return dynamic.NewMaintainer(ctx, g, cfg)
}

// Apply atomically applies a batch of edge updates and repairs the
// maintained set by draining the change-driven priority frontier. An
// invalid batch (dynamic.ErrBadUpdate) changes nothing.
func (s *MISSession) Apply(ctx context.Context, batch []DynamicUpdate) (RepairStats, error) {
	return s.mt.Apply(ctx, batch)
}

// Result returns a snapshot of the current MIS (Stats zero — per-batch
// costs are reported by Apply).
func (s *MISSession) Result() *MISResult { return s.mt.MISResult() }

// Graph returns the current graph as an immutable CSR.
func (s *MISSession) Graph() *Graph { return s.mt.Graph() }

// NumVertices returns the (fixed) vertex count.
func (s *MISSession) NumVertices() int { return s.mt.NumVertices() }

// NumEdges returns the current edge count.
func (s *MISSession) NumEdges() int { return s.mt.NumEdges() }

// InitStats returns the cost counters of the initial computation.
func (s *MISSession) InitStats() Stats {
	mis, _ := s.mt.InitStats()
	return mis
}

// MMSession maintains a maximal matching under edge churn. Obtain one
// from Solver.MMDynamic; it is not safe for concurrent use.
type MMSession struct {
	mt *dynamic.Maintainer
}

// MMDynamic computes the maximal matching of g under churn-stable
// (hash-derived, WithDynamic-style) edge priorities and returns a
// session that maintains it under edge updates. The maintained
// matching always equals Solver.MM(ctx, g.EdgeList(), WithDynamic(),
// WithSeed(seed)) on the current graph. Explicit orders are reported
// as ErrDynamicUnsupported, and AlgoLuby as ErrLubyMatching.
func (s *Solver) MMDynamic(ctx context.Context, g *Graph, opts ...Option) (*MMSession, error) {
	mt, err := s.maintainer(ctx, ProblemMM, g, opts)
	if err != nil {
		return nil, err
	}
	return &MMSession{mt: mt}, nil
}

// Apply atomically applies a batch of edge updates and repairs the
// maintained matching.
func (s *MMSession) Apply(ctx context.Context, batch []DynamicUpdate) (RepairStats, error) {
	return s.mt.Apply(ctx, batch)
}

// Pairs returns the current matching as canonical edges sorted
// lexicographically.
func (s *MMSession) Pairs() []Edge { return s.mt.MatchingPairs() }

// Mate returns a copy of the mate array (mate[v] = matched partner of
// v, or -1).
func (s *MMSession) Mate() []int32 { return s.mt.Mate() }

// Size returns the number of matched edges.
func (s *MMSession) Size() int { return len(s.mt.MatchingPairs()) }

// Graph returns the current graph as an immutable CSR.
func (s *MMSession) Graph() *Graph { return s.mt.Graph() }

// NumVertices returns the (fixed) vertex count.
func (s *MMSession) NumVertices() int { return s.mt.NumVertices() }

// NumEdges returns the current edge count.
func (s *MMSession) NumEdges() int { return s.mt.NumEdges() }

// InitStats returns the cost counters of the initial computation.
func (s *MMSession) InitStats() Stats {
	_, mm := s.mt.InitStats()
	return mm
}

// DynamicEdgeOrder exposes the churn-stable edge order WithDynamic
// selects for an explicit edge list — the order a from-scratch
// verification of a dynamic matching session must use.
func DynamicEdgeOrder(el EdgeList, seed uint64) Order {
	return dynamic.EdgeOrder(el, seed)
}
