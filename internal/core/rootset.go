package core

import (
	"context"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/graph"
)

// RootSetMIS computes the lexicographically-first MIS of g under ord
// with the linear-work implementation of Lemma 4.2: the algorithm
// explicitly maintains the set of roots of the remaining priority DAG.
// Each step adds the roots to the MIS, marks their children out, and
// runs Lemma 4.1's pointer check (checkPointered) on the out-neighbors'
// children to discover the next root set. Each parent edge is skipped
// past at most once (the lazy deletion argument of Lemma 4.1), so total
// work is O(n + m); the number of steps equals the dependence length of
// the priority DAG exactly, which Theorem 3.5 bounds by O(log^2 n)
// w.h.p. for random orders. ctx is checked once per step, and buffers
// come from opt.Workspace when set.
//
// The steps are engine.Steps' over the MIS Stepper, in rank space like
// PrefixMIS: statuses, pointers and claim stamps are indexed by rank,
// the parents are opt.Parents when set (built for this run otherwise),
// and the children, the other side of the same partition, are built
// into the workspace on every call.
func RootSetMIS(ctx context.Context, g *graph.Graph, ord Order, opt Options) (*Result, error) {
	prob, ws := newMISProblem(g, ord, opt, true)
	n := len(prob.status)
	ws.children.partition(g, ord, false)
	p := &rootSetMIS{misProblem: prob, children: &ws.children, claim: engine.Grow32(&ws.claim, n)}
	engine.Fill32(p.claim, -1)
	stats, err := engine.Steps(ctx, n, p, opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return newResult(p.status, ord.Order, stats), nil
}

// rootSetMIS is the MIS Stepper, on the statuses, parents and pointers
// of the embedded MIS problem. claim[r] records the last step at which
// some neighbor claimed the right to check r: the concurrent-write
// deduplication of Lemma 4.2 ("whichever write succeeds is responsible
// for the check"), so per step at most one worker checks r.
type rootSetMIS struct {
	*misProblem
	children *Parents
	claim    []int32
}

// Root: the first roots are the ranks with no parents at all.
func (p *rootSetMIS) Root(r int32) bool {
	return len(p.parents.Of(r)) == 0
}

// Accept adds root r to the set and marks its children out; its
// parents are already dead. The CAS assigns each killed vertex to
// exactly one root, so each is exposed once.
func (p *rootSetMIS) Accept(r int32, killed []int32) ([]int32, int64) {
	atomic.StoreInt32(&p.status[r], statusIn)
	kids := p.children.Of(r)
	for _, c := range kids {
		if atomic.CompareAndSwapInt32(&p.status[c], statusUndecided, statusOut) {
			killed = append(killed, c)
		}
	}
	return killed, int64(len(kids))
}

// Expose checks the children of killed vertex w, each at most once per
// step. Statuses are final for the step, and after the first phase no
// undecided vertex has a parent in the set, so the claimant's pointer
// check finds its vertex ready (statusIn) or stalled, never out.
func (p *rootSetMIS) Expose(w, step int32, found, deferred []int32) ([]int32, []int32, int64) {
	kids := p.children.Of(w)
	insp := int64(len(kids))
	for _, c := range kids {
		if p.status[c] != statusUndecided {
			continue
		}
		old := atomic.LoadInt32(&p.claim[c])
		if old == step || !atomic.CompareAndSwapInt32(&p.claim[c], old, step) {
			continue // someone else claimed c this step
		}
		st, n := checkPointered(c, p.status, p.parents, p.ptr)
		insp += n
		if st == statusIn {
			found = append(found, c)
		}
	}
	return found, deferred, insp
}

// Settle has nothing to publish: only c's claimant moves ptr[c].
func (p *rootSetMIS) Settle([]int32) {}
