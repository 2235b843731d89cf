package matching

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// RootSetMM computes the lexicographically-first maximal matching with
// the linear-work implementation of Lemma 5.3. Each vertex keeps its
// incident edges sorted by priority; an edge is "ready" when it is the
// highest-priority remaining edge at both endpoints (a root of the edge
// priority DAG). Each step matches the ready edges, lazily deletes their
// neighboring edges, and runs mmCheck on the far endpoints of deleted
// edges to discover the next ready set. Every incident-list entry is
// skipped past at most once, so total work is O(n + m); the number of
// steps is exactly the dependence length of the edge priority DAG.
// ctx is checked once per step, and buffers come from opt.Workspace
// when set.
//
// The steps are engine.Steps' over the MM Stepper, in rank space like
// PrefixMM, with which it shares its set-up: the edges are gathered
// into rank order, statuses and claims are indexed by rank, and the
// incidence of the gathered edges lists each vertex's ranks in
// increasing order — priority order, the paper's Lemma 5.3
// preprocessing, with no sort.
func RootSetMM(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	prob, ws := newMMProblem(el, ord, opt)
	m := len(prob.edges)
	p := &rootSetMM{
		mmProblem: prob,
		inc:       graph.BuildIncidence(graph.EdgeList{N: el.N, Edges: prob.edges}),
		status:    engine.Grow32(&ws.status, m),
		vptr:      engine.Grow32(&ws.reserv, el.N),
		claimed:   engine.Grow32(&ws.claimed, m),
		stamp:     engine.Grow32(&ws.stamp, el.N),
	}
	engine.Fill32(p.status, statusUndecided)
	engine.Fill32(p.vptr, 0)
	engine.Fill32(p.claimed, 0)
	engine.Fill32(p.stamp, -1)
	stats, err := engine.Steps(ctx, m, p, opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return bitsResult(el, p.in, stats), nil
}

// rootSetMM is the MM Stepper, on the edges, mates and result bits of
// the embedded matching problem; a killed entry is the far endpoint of
// a deleted edge. vptr[v] indexes the first not-yet-skipped entry of
// v's incident list (lazy deletion); claimed[r] dedups ready-edge
// discovery, as both endpoints can find an edge ready; and stamp[v]
// lets each far endpoint be checked once per step.
type rootSetMM struct {
	*mmProblem
	inc                          graph.Incidence
	status, vptr, claimed, stamp []int32
}

// Root: the first ready edges head both endpoints' lists.
func (p *rootSetMM) Root(r int32) bool {
	e := p.edges[r]
	return p.inc.Incident(e.U)[0] == r && p.inc.Incident(e.V)[0] == r
}

// Accept matches ready edge e and lazily deletes its neighbors,
// appending the far endpoint of each edge it deletes.
func (p *rootSetMM) Accept(e int32, far []int32) ([]int32, int64) {
	edge := p.edges[e]
	p.in[p.order[e]] = true
	atomic.StoreInt32(&p.status[e], statusIn)
	atomic.StoreInt32(&p.mate[edge.U], edge.V)
	atomic.StoreInt32(&p.mate[edge.V], edge.U)
	var insp int64
	for _, endpoint := range [2]int32{edge.U, edge.V} {
		ids := p.inc.Incident(endpoint)
		insp += int64(len(ids))
		for _, f := range ids {
			if f != e && atomic.CompareAndSwapInt32(&p.status[f], statusUndecided, statusOut) {
				far = append(far, p.edges[f].Other(endpoint))
			}
		}
	}
	return far, insp
}

// Expose runs mmCheck on far endpoint z, which may surface one newly
// ready edge. A far endpoint matched this step is skipped: it has no
// undecided edge left, and which of its two matched ends won the kill
// must not decide whether it is scanned. The check reads start-of-step
// pointers only, and defers z's advanced pointer as a (z, ptr) pair.
func (p *rootSetMM) Expose(z, step int32, found, moved []int32) ([]int32, []int32, int64) {
	if p.mate[z] != unmatched {
		return found, moved, 0
	}
	old := atomic.LoadInt32(&p.stamp[z])
	if old == step || !atomic.CompareAndSwapInt32(&p.stamp[z], old, step) {
		return found, moved, 0 // another worker already checks z this step
	}
	ready, ptr, insp := mmCheck(z, p.edges, p.inc, p.status, p.vptr)
	moved = append(moved, z, ptr)
	if ready >= 0 && atomic.CompareAndSwapInt32(&p.claimed[ready], 0, 1) {
		found = append(found, ready)
	}
	return found, moved, insp
}

// Settle publishes the pointer advances of one chunk's checks.
func (p *rootSetMM) Settle(moved []int32) {
	for k := 0; k < len(moved); k += 2 {
		p.vptr[moved[k]] = moved[k+1]
	}
}

// mmCheck is the two-phase check of Lemma 5.2 on vertex z: advance past
// deleted incident edges to find the highest-priority remaining edge t
// (charging skipped entries to their deletion), then verify that t also
// heads the remaining list of its other endpoint. It returns t's rank if
// so and -1 otherwise, with z's advanced pointer. It writes nothing:
// statuses and pointers are the step's, so its result and the
// inspections it counts do not depend on which checks run beside it.
func mmCheck(z int32, edges []graph.Edge, inc graph.Incidence, status []int32, vptr []int32) (ready, ptr int32, inspections int64) {
	ids := inc.Incident(z)
	i := vptr[z]
	for int(i) < len(ids) {
		inspections++
		if status[ids[i]] == statusUndecided {
			break
		}
		i++
	}
	if int(i) == len(ids) {
		return -1, i, inspections
	}
	t := ids[i]
	// Phase two: is t also the top remaining edge at its other endpoint?
	w := edges[t].Other(z)
	wids := inc.Incident(w)
	for j := vptr[w]; int(j) < len(wids); j++ {
		inspections++
		if status[wids[j]] == statusUndecided {
			if wids[j] == t {
				return t, i, inspections
			}
			return -1, i, inspections
		}
	}
	return -1, i, inspections
}
