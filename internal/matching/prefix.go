package matching

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// PrefixMM computes the lexicographically-first maximal matching of el
// under ord with the prefix-based parallelization of the paper's
// Algorithm 4, implemented with deterministic reservations (the
// reserve/commit protocol of Blelloch et al. [2], the mechanism behind
// the paper's experiments). Each round takes the earliest unresolved
// edges as the active window; every active edge reserves both of its
// endpoints with a priority write-min, and an edge commits exactly when
// it holds both reservations — i.e. when it has no earlier unresolved
// neighboring edge, which is precisely the acceptance condition of
// Algorithm 4 restricted to the window. Edges that lose a reservation
// race retry in the next round; edges with a matched endpoint resolve
// to out.
//
// Because the window always holds the earliest unresolved edges, and an
// edge commits only when every earlier neighbor is resolved, the result
// equals the sequential greedy matching for any prefix size, grain size
// and thread count.
//
// ctx is checked once per round, so a cancelled context aborts within
// one round and returns ctx.Err(). Pooled buffers come from
// opt.Workspace when set.
//
// The round loop is the shared speculative-prefix engine
// (internal/engine); this function contributes the matching problem:
// reserve both endpoints in the check phase, commit when holding both
// reservations and release the held ones in the commit phase. The run
// is in rank space: the edges are gathered into rank order once, an
// edge's rank is its bid, and a committed edge sets its own bit of the
// result, at its id order[r].
func PrefixMM(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	prob, ws := newMMProblem(el, ord, opt)
	// reserv[v] holds the smallest rank among active edges bidding for
	// vertex v this round.
	prob.reserv = engine.Grow32(&ws.reserv, el.N)
	engine.Fill32(prob.reserv, maxRank)
	stats, err := engine.Run(ctx, len(prob.edges), prob, opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return bitsResult(el, prob.in, stats), nil
}

// SequentialMM computes the greedy maximal matching of el under ord: it
// scans edges in priority order and keeps an edge exactly when both of
// its endpoints are still free. This is the paper's linear-time
// sequential algorithm whose output — the lexicographically-first
// matching — every parallel implementation in this package reproduces.
// It is the engine's sequential scan over the adapter PrefixMM runs,
// on the same rank-gathered edges; it needs no reservations.
//
// Stats follow the paper's convention: Rounds = Attempts = m for a
// sequential run; EdgeInspections counts the two endpoint examinations
// per edge. ctx is checked every 4,096 edges, and buffers come from
// opt.Workspace when set.
func SequentialMM(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	prob, _ := newMMProblem(el, ord, opt)
	stats, err := engine.Scan(ctx, len(prob.edges), prob)
	if err != nil {
		return nil, err
	}
	return bitsResult(el, prob.in, stats), nil
}

// newMMProblem is the set-up PrefixMM, SequentialMM and RootSetMM
// share: the workspace, the mates, the result bits and the
// rank-gathered edges.
func newMMProblem(el graph.EdgeList, ord core.Order, opt Options) (*mmProblem, *Workspace) {
	m := el.NumEdges()
	if ord.Len() != m {
		panic("matching: order size does not match edge list")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	mate := engine.Grow32(&ws.mate, el.N)
	engine.Fill32(mate, unmatched)
	return &mmProblem{
		edges: el.GatherByRank(ws.edgeBuf(), ord.Order),
		order: ord.Order,
		in:    make([]bool, m),
		mate:  mate,
	}, ws
}

// maxRank is the neutral reservation value: larger than any edge rank.
const maxRank = int32(1<<31 - 1)

// mmProblem is the engine adapter for deterministic-reservation
// matching, indexed by rank: edges[r] is the edge of rank r, and r is
// its bid. reserv is the one word shared within a phase: bids race
// through the priority write-min in Check, and in Commit every edge
// loads its endpoints' slots while the holders clear theirs, so every
// access to it is atomic. in and mate have one writer per phase — a
// committed edge writes its own bit, and two committing edges never
// share an endpoint (both hold their endpoints' reservations) — and are
// read only across the engine's fork-join barrier, so they stay plain.
// A dropped edge writes nothing: its bit is already false.
type mmProblem struct {
	edges  []graph.Edge
	order  []int32
	in     []bool
	mate   []int32
	reserv []int32
}

// Check is the reserve phase: an edge whose endpoint is already matched
// resolves immediately; otherwise it bids for both endpoints.
func (p *mmProblem) Check(act, outcome []int32, lo, hi int) int64 {
	var local int64
	for i := lo; i < hi; i++ {
		r := act[i]
		edge := p.edges[r]
		local += 2
		if p.mate[edge.U] != unmatched || p.mate[edge.V] != unmatched {
			outcome[i] = engine.Dropped
			continue
		}
		parallel.WriteMin32(&p.reserv[edge.U], r)
		parallel.WriteMin32(&p.reserv[edge.V], r)
	}
	return local
}

// Commit matches every edge holding both of its endpoints' reservations
// — it is the earliest unresolved edge on both sides — and releases
// every reservation an edge holds, matched or not, so all slots are
// neutral for the next round. Both slots are loaded before either is
// released, since a self-loop's two endpoints are one slot.
func (p *mmProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	var local int64
	for i := lo; i < hi; i++ {
		if outcome[i] != engine.Undecided {
			continue
		}
		r := act[i]
		edge := p.edges[r]
		local += 2
		holdU := atomic.LoadInt32(&p.reserv[edge.U]) == r
		holdV := atomic.LoadInt32(&p.reserv[edge.V]) == r
		if holdU {
			atomic.StoreInt32(&p.reserv[edge.U], maxRank)
		}
		if holdV {
			atomic.StoreInt32(&p.reserv[edge.V], maxRank)
		}
		if holdU && holdV {
			outcome[i] = engine.Committed
			p.in[p.order[r]] = true
			p.mate[edge.U] = edge.V
			p.mate[edge.V] = edge.U
		}
	}
	return local
}

// Decide is the sequential step: with every earlier edge final, edge r
// is matched exactly when both of its endpoints are free.
func (p *mmProblem) Decide(r int32) int64 {
	edge := p.edges[r]
	if p.mate[edge.U] == unmatched && p.mate[edge.V] == unmatched {
		p.in[p.order[r]] = true
		p.mate[edge.U] = edge.V
		p.mate[edge.V] = edge.U
	}
	return 2
}
