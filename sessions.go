package greedy

import (
	"context"

	"repro/internal/dynamic"
)

// Dynamic-graph sessions: incremental maintenance of MIS and MM under
// edge churn. A session wraps an internal/dynamic.Maintainer of one
// problem: it owns a mutable overlay over the (immutable) input graph
// and, on every Apply, drains a change-driven priority frontier —
// seeded only by the directly-perturbed items, expanding to an item's
// later neighbors only when the item's membership actually flipped —
// instead of recomputing, with results bit-identical to a from-scratch
// run on the mutated graph. See Solver.Dynamic.

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
	// would mean repair is re-deriving unchanged decisions. Cost
	// returns the session problem's section.
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

// Session maintains one problem's answer under edge churn. Obtain one
// from Solver.Dynamic; it is not safe for concurrent use.
type Session struct {
	problem Problem
	mt      *dynamic.Maintainer
}

// Dynamic computes p's answer on g and returns a session that
// maintains it under edge updates. opts are checked as a dynamic plan
// of p against p's table row, as Solve checks them, so a problem
// without a churn-stable variant, AlgoLuby and an explicit order for
// MM are reported as ErrDynamicUnsupported. An MIS session runs under
// the order Solver.MIS derives for the configured seed (served from
// the Solver's order cache) or under WithOrder; an MM session under the
// churn-stable edge priorities of WithDynamic. Either way the session's
// Answer always matches a WithDynamic Solve on the current graph. The
// initial computation honors ctx.
func (s *Solver) Dynamic(ctx context.Context, p Problem, g *Graph, opts ...Option) (*Session, error) {
	c := s.config(opts)
	c.dynamic = true
	if err := c.check(p); err != nil {
		return nil, err
	}
	var mt *dynamic.Maintainer
	var err error
	if p == ProblemMIS {
		var ord Order
		if ord, err = s.orderFor(c, g.NumVertices()); err != nil {
			return nil, err
		}
		mt, err = dynamic.NewMIS(ctx, g, ord, c.grain)
	} else { // ProblemMM: check rejects the problems without a dynamic variant
		mt, err = dynamic.NewMM(ctx, g, c.seed, c.grain)
	}
	if err != nil {
		return nil, err
	}
	return &Session{problem: p, mt: mt}, nil
}

// Apply atomically applies a batch of edge updates and repairs the
// maintained answer by draining the change-driven priority frontier.
// An invalid batch (dynamic.ErrBadUpdate) changes nothing.
func (s *Session) Apply(ctx context.Context, batch []DynamicUpdate) (RepairStats, error) {
	return s.mt.Apply(ctx, batch)
}

// Answer returns a snapshot of the maintained answer, with zero Stats
// (Apply reports the per-batch costs): an MIS has its membership bits
// and members, and a matching only its pairs, sorted, since its edge
// identifiers shift as edges come and go.
func (s *Session) Answer() Answer {
	a := Answer{Problem: s.problem}
	if r := s.mt.MISResult(); r != nil {
		a.Size, a.In, a.Members = r.Size(), r.InSet, r.Set
	} else {
		a.Pairs = s.mt.MatchingPairs()
		a.Size = len(a.Pairs)
	}
	return a
}

// Graph returns the current graph as an immutable CSR.
func (s *Session) Graph() *Graph { return s.mt.Graph() }

// NumVertices returns the (fixed) vertex count.
func (s *Session) NumVertices() int { return s.mt.NumVertices() }

// NumEdges returns the current edge count.
func (s *Session) NumEdges() int { return s.mt.NumEdges() }

// InitStats returns the cost counters of the initial computation.
func (s *Session) InitStats() Stats { return s.mt.InitStats() }

// MISSession is an MIS Session with the MIS result form. Obtain one
// from Solver.MISDynamic.
type MISSession struct{ Session }

// MISDynamic is Dynamic for ProblemMIS.
func (s *Solver) MISDynamic(ctx context.Context, g *Graph, opts ...Option) (*MISSession, error) {
	sess, err := s.Dynamic(ctx, ProblemMIS, g, opts...)
	if err != nil {
		return nil, err
	}
	return &MISSession{*sess}, nil
}

// Result returns a snapshot of the current MIS (Stats zero — per-batch
// costs are reported by Apply).
func (s *MISSession) Result() *MISResult { return s.mt.MISResult() }

// MMSession is a matching Session with the matching's pairs. Obtain
// one from Solver.MMDynamic. The maintained matching always equals
// Solver.MM(ctx, g.EdgeList(), WithDynamic(), WithSeed(seed)) on the
// current graph.
type MMSession struct{ Session }

// MMDynamic is Dynamic for ProblemMM.
func (s *Solver) MMDynamic(ctx context.Context, g *Graph, opts ...Option) (*MMSession, error) {
	sess, err := s.Dynamic(ctx, ProblemMM, g, opts...)
	if err != nil {
		return nil, err
	}
	return &MMSession{*sess}, nil
}

// Pairs returns the current matching as canonical edges sorted
// lexicographically.
func (s *MMSession) Pairs() []Edge { return s.mt.MatchingPairs() }

// Size returns the number of matched edges.
func (s *MMSession) Size() int { return len(s.mt.MatchingPairs()) }

// DynamicEdgeOrder exposes the churn-stable edge order WithDynamic
// selects for an explicit edge list — the order a from-scratch
// verification of a dynamic matching session must use.
func DynamicEdgeOrder(el EdgeList, seed uint64) Order {
	return dynamic.EdgeOrder(el, seed)
}
