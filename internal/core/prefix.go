package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/graph"
)

// PrefixMIS computes the lexicographically-first MIS of g under ord with
// the paper's Algorithm 3 / Theorem 4.5: the prefix-based algorithm used
// in all of the paper's experiments. Each round takes the earliest (up
// to) prefix-size unresolved vertices as the active window and runs one
// step of Algorithm 2 on it: every active vertex checks its earlier
// neighbors against the state at the start of the round, vertices whose
// earlier neighbors are all out join the MIS, vertices with an earlier
// MIS neighbor drop out, and the rest retry in the next round together
// with newly admitted vertices.
//
// Rounds are strictly synchronous — the check phase reads only statuses
// written in previous rounds, and the update phase writes each vertex's
// own status — so the result is the sequential greedy MIS for any prefix
// size and thread count, and no atomics are needed at all (the fork-join
// barrier between phases is the only synchronization). One deliberate
// fidelity note: like the PBBS implementation the paper measures,
// discarded vertices discover their accepted neighbor by checking, one
// round after it is admitted, so the executed round count for a full
// prefix lies between the dependence length and twice the dependence
// length plus one; RootSetMIS implements the idealized "remove roots
// and their children in the same step" semantics and its step count
// equals the dependence length exactly.
//
// The prefix size trades work for parallelism (the subject of Figure 1):
// prefix 1 is the sequential algorithm (Attempts = n, Rounds = n); the
// full prefix is Algorithm 2 (Rounds = dependence length, maximum
// redundant work).
//
// ctx is checked once per round (the hot inner loops never see it), so
// a cancelled context aborts the run within one round and returns
// ctx.Err(). Pooled buffers come from opt.Workspace when set.
//
// The round loop itself is the shared speculative-prefix engine
// (internal/engine); this function contributes only the MIS problem:
// the check that decides a vertex against its parents and the commit
// that publishes the decision. The run is in rank space: the status
// array is indexed by rank, the rank-space parent lists (opt.Parents
// when set, built for this run otherwise) hold ranks, and the result is
// mapped back to vertices through ord.Order once at the end.
func PrefixMIS(ctx context.Context, g *graph.Graph, ord Order, opt Options) (*Result, error) {
	prob, ws := newMISProblem(g, ord, opt, opt.Pointered)
	stats, err := engine.Run(ctx, len(prob.status), prob, opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return newResult(prob.status, ord.Order, stats), nil
}

// SequentialMIS computes the lexicographically-first MIS of g under ord
// with the paper's Algorithm 1: ranks in priority order, each joining
// the MIS exactly when no earlier neighbor is in it. It is the engine's
// sequential scan over the adapter PrefixMIS runs, deciding each rank
// with the same parent scan (checkScratch) over the same rank-space
// parent lists (opt.Parents when set, built for this run otherwise), so
// it is the prefix algorithm at prefix size 1 without the window.
//
// Stats: Rounds = Attempts = n (the paper's convention that a
// sequential implementation's work and round count both equal the input
// size); EdgeInspections counts the parents the decisions scan. ctx is
// checked every 4,096 ranks; the status array comes from opt.Workspace
// when set. opt's window knobs and Pointered do not apply.
func SequentialMIS(ctx context.Context, g *graph.Graph, ord Order, opt Options) (*Result, error) {
	prob, _ := newMISProblem(g, ord, opt, false)
	stats, err := engine.Scan(ctx, len(prob.status), prob)
	if err != nil {
		return nil, err
	}
	return newResult(prob.status, ord.Order, stats), nil
}

// newMISProblem is the set-up PrefixMIS, SequentialMIS and RootSetMIS
// share: the workspace, the rank-indexed status array, the rank-space
// parent lists and, for pointered checks, the zeroed parent pointers.
func newMISProblem(g *graph.Graph, ord Order, opt Options, pointered bool) (*misProblem, *Workspace) {
	n := g.NumVertices()
	if ord.Len() != n {
		panic("core: order size does not match graph")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	status := engine.Grow32(&ws.status, n)
	engine.Fill32(status, statusUndecided)
	parents := opt.Parents
	if parents == nil {
		parents = BuildParents(g, ord)
	}
	p := &misProblem{status: status, parents: parents}
	if pointered {
		p.ptr = engine.Grow32(&ws.ptr, n)
		engine.Fill32(p.ptr, 0)
	}
	return p, ws
}

// misProblem is the engine adapter for MIS, indexed by rank: the check
// phase decides rank r from its parents' statuses, written in previous
// rounds, and the commit phase writes each rank's own status — no
// atomics at all, the fork-join barrier between phases is the
// synchronization. Under Pointered, ptr[r] is r's private scan cursor,
// written only by r's own check, so the phase stays write-disjoint.
type misProblem struct {
	status  []int32
	parents *Parents
	ptr     []int32 // nil unless Pointered
}

func (p *misProblem) Check(act, outcome []int32, lo, hi int) int64 {
	var local int64
	for i := lo; i < hi; i++ {
		var insp int64
		if p.ptr != nil {
			outcome[i], insp = checkPointered(act[i], p.status, p.parents, p.ptr)
		} else {
			outcome[i], insp = checkScratch(act[i], p.status, p.parents)
		}
		local += insp
	}
	return local
}

func (p *misProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		if outcome[i] != statusUndecided {
			p.status[act[i]] = outcome[i]
		}
	}
	return 0
}

// Decide is the sequential step: with every earlier rank final,
// checkScratch never leaves r undecided.
func (p *misProblem) Decide(r int32) int64 {
	st, insp := checkScratch(r, p.status, p.parents)
	p.status[r] = st
	return insp
}

// checkScratch decides rank r by scanning all of its parents (the
// PBBS-style check the paper measures): if any parent is in the MIS, r
// is out; if all are out, r is in; otherwise r stays undecided and is
// retried next round. Returns the decision and the number of parent
// inspections performed.
func checkScratch(r int32, status []int32, parents *Parents) (int32, int64) {
	ps := parents.Of(r)
	sawUndecided := false
	for i, u := range ps {
		switch status[u] {
		case statusIn:
			return statusOut, int64(i + 1)
		case statusUndecided:
			sawUndecided = true
		}
	}
	if sawUndecided {
		return statusUndecided, int64(len(ps))
	}
	return statusIn, int64(len(ps))
}

// checkPointered is checkScratch with the parent-pointer optimization of
// Lemma 4.1: the scan resumes at the first parent that blocked the
// previous attempt, charging each skipped (dead) parent once. This caps
// total check work at O(m) regardless of the number of retries.
func checkPointered(r int32, status []int32, parents *Parents, ptr []int32) (int32, int64) {
	ps := parents.Of(r)
	i := ptr[r]
	var inspections int64
	for int(i) < len(ps) {
		inspections++
		switch status[ps[i]] {
		case statusOut:
			i++
		case statusIn:
			ptr[r] = i
			return statusOut, inspections
		default: // undecided: stall here and retry next round
			ptr[r] = i
			return statusUndecided, inspections
		}
	}
	ptr[r] = i
	return statusIn, inspections
}
