package spanning

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// PrefixSFRelaxed computes a spanning forest with the PBBS-style
// one-root reservation: an edge reserves only the root it would link
// (the larger root id, hung under the smaller), so any number of edges
// can attach distinct subtrees to the same hub component in one round.
//
// The tradeoff against PrefixSF is precise and worth stating, because it
// is the honest answer to the paper's §7 conjecture for spanning
// forests:
//
//   - PrefixSF reserves BOTH roots, which forces the exact
//     lexicographically-first forest (sequential equivalence) but
//     serializes attachments to a hub component — one tree edge per
//     round can win the hub's reservation, so on graphs whose union
//     structure funnels through a giant component the round count
//     degenerates toward Theta(n) and the parallelism evaporates.
//   - PrefixSFRelaxed commits every edge that wins its single written
//     root. The result is still a valid spanning forest (same
//     components as the input, no cycles: links always hang the larger
//     root under the smaller, so parent ids strictly decrease), and it
//     is deterministic for a fixed order AND fixed prefix size — every
//     rerun and every thread count gives the same forest — but it is
//     not necessarily the forest the sequential loop picks, and
//     different prefix sizes may pick different (equally valid)
//     forests. This is exactly the semantics of the PBBS spanning
//     forest built on deterministic reservations.
//
// ctx is checked once per round, so a cancelled context aborts within
// one round and returns ctx.Err(). Pooled buffers come from
// opt.Workspace when set.
//
// The round loop is the shared speculative-prefix engine
// (internal/engine); this function contributes the relaxed spanning
// forest problem: bid only on the root that would be overwritten, link
// on winning that single reservation and release it in the commit
// phase. The relaxed forest is deterministic per window schedule (and
// the adaptive schedule is itself a deterministic function of the run),
// but different schedules — like different fixed prefixes — may select
// different, equally valid forests.
func PrefixSFRelaxed(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	prob, ws := newSFProblem(el, ord, opt)
	prob.reserv = engine.Grow32(&ws.reserv, el.N)
	engine.Fill32(prob.reserv, maxRank)
	stats, err := engine.Run(ctx, len(prob.edges), (*sfRelaxedProblem)(prob), opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return newResult(el, prob.in, stats), nil
}

// sfRelaxedProblem is the engine adapter for the PBBS-style one-root
// reservation forest. It holds sfProblem's rank-indexed state under
// sfProblem's sharing discipline; only the phases differ. Check writes
// the root pair it found into the edge's window slot of roots, the root
// it would write (the larger id) first, and Commit links that pair.
type sfRelaxedProblem sfProblem

// SizeWindow is sfProblem's.
func (p *sfRelaxedProblem) SizeWindow(bound int) { (*sfProblem)(p).SizeWindow(bound) }

// Check is the reserve phase: find roots, drop cycle edges, bid on the
// root that would be overwritten (the larger id).
func (p *sfRelaxedProblem) Check(act, outcome []int32, lo, hi int) int64 {
	var local int64
	for i := lo; i < hi; i++ {
		r := act[i]
		edge := p.edges[r]
		ru := p.dsu.Find(edge.U)
		rv := p.dsu.Find(edge.V)
		local += 2
		if ru == rv {
			outcome[i] = engine.Dropped
			continue
		}
		if ru < rv {
			ru, rv = rv, ru
		}
		p.roots[i] = graph.Edge{U: ru, V: rv}
		parallel.WriteMin32(&p.reserv[ru], r)
	}
	return local
}

// Commit links the winner of each written root and releases its
// reservation. Distinct winners write distinct roots, so links never
// race; hanging larger under smaller keeps the structure a forest.
func (p *sfRelaxedProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		if outcome[i] != engine.Undecided {
			continue
		}
		r := act[i]
		child, target := p.roots[i].U, p.roots[i].V
		if atomic.LoadInt32(&p.reserv[child]) == r {
			atomic.StoreInt32(&p.reserv[child], maxRank)
			p.dsu.Link(child, target)
			p.in[p.order[r]] = true
			outcome[i] = engine.Committed
		}
	}
	return 0
}
