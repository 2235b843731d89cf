package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// RootSetMIS computes the lexicographically-first MIS of g under ord
// with the linear-work implementation of Lemma 4.2: the algorithm
// explicitly maintains the set of roots of the remaining priority DAG.
// Each step adds the roots to the MIS, marks their children out, and
// runs a misCheck on the out-neighbors' children to discover the next
// root set. Each parent edge is skipped past at most once (the lazy
// deletion argument of Lemma 4.1), so total work is O(n + m); the number
// of steps equals the dependence length of the priority DAG exactly,
// which Theorem 3.5 bounds by O(log^2 n) w.h.p. for random orders.
// ctx is checked once per step, and buffers come from opt.Workspace
// when set.
func RootSetMIS(ctx context.Context, g *graph.Graph, ord Order, opt Options) (*Result, error) {
	n := g.NumVertices()
	if ord.Len() != n {
		panic("core: order size does not match graph")
	}
	parents := buildVertexParents(g, ord)
	children := buildChildren(g, ord)

	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	status := engine.Grow32(&ws.status, n)
	engine.Fill32(status, statusUndecided)
	// ptr[v] indexes the first not-yet-skipped parent of v; parents
	// before it are known dead (lazy deletion, Lemma 4.1).
	ptr := engine.Grow32(&ws.ptr, n)
	engine.Fill32(ptr, 0)
	// claimStamp[v] records the last step at which some neighbor claimed
	// the right to misCheck v. This is the concurrent-write
	// deduplication of Lemma 4.2 ("whichever write succeeds is
	// responsible for the check"): per step, at most one worker checks v.
	claimStamp := engine.Grow32(&ws.claim, n)
	engine.Fill32(claimStamp, -1)

	stats := Stats{}
	var inspections atomic.Int64
	var prevInspections int64

	// Initial roots: vertices with no parents at all.
	frontier := parallel.PackIndex(n, opt.Grain, func(i int) bool {
		return parents.offsets[i] == parents.offsets[i+1]
	})

	undecided := n
	for undecided > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(frontier) == 0 {
			panic("core: RootSetMIS frontier empty with undecided vertices")
		}
		step := int32(stats.Rounds)
		stats.Rounds++
		stats.Attempts += int64(len(frontier))

		// Phase 1: accept roots and mark their children out. (A root's
		// earlier neighbors are already dead by definition.) The CAS
		// assigns each killed vertex to exactly one root so phase 2
		// traverses each killed vertex once.
		killedPerRoot := make([][]int32, len(frontier))
		var decidedThisStep atomic.Int64
		parallel.ForRange(len(frontier), opt.Grain, func(lo, hi int) {
			var local, decidedLocal int64
			for i := lo; i < hi; i++ {
				v := frontier[i]
				atomic.StoreInt32(&status[v], statusIn)
				decidedLocal++
				var killed []int32
				kids := children.Of(v)
				local += int64(len(kids))
				for _, c := range kids {
					if atomic.CompareAndSwapInt32(&status[c], statusUndecided, statusOut) {
						killed = append(killed, c)
						decidedLocal++
					}
				}
				killedPerRoot[i] = killed
			}
			inspections.Add(local)
			decidedThisStep.Add(decidedLocal)
		})
		undecided -= int(decidedThisStep.Load())

		// Phase 2: misCheck the children of killed vertices; the
		// successful claimant packs ready vertices into the next
		// frontier. Claim-once-per-step means each candidate is examined
		// at most once per step.
		var mu sync.Mutex
		var chunks [][]int32
		parallel.ForRange(len(frontier), opt.Grain, func(lo, hi int) {
			var local int64
			var found []int32
			for i := lo; i < hi; i++ {
				for _, w := range killedPerRoot[i] {
					kids := children.Of(w)
					local += int64(len(kids))
					for _, c := range kids {
						if atomic.LoadInt32(&status[c]) != statusUndecided {
							continue
						}
						old := atomic.LoadInt32(&claimStamp[c])
						if old == step || !atomic.CompareAndSwapInt32(&claimStamp[c], old, step) {
							continue // someone else claimed c this step
						}
						ready, insp := misCheck(c, status, parents, ptr)
						local += insp
						if ready {
							found = append(found, c)
						}
					}
				}
			}
			inspections.Add(local)
			if len(found) > 0 {
				mu.Lock()
				chunks = append(chunks, found)
				mu.Unlock()
			}
		})
		total := 0
		for _, ch := range chunks {
			total += len(ch)
		}
		next := make([]int32, 0, total)
		for _, ch := range chunks {
			next = append(next, ch...)
		}
		if opt.OnRound != nil {
			cur := inspections.Load()
			opt.OnRound(RoundStat{
				Round:       stats.Rounds,
				Attempted:   len(frontier),
				Resolved:    int(decidedThisStep.Load()),
				Inspections: cur - prevInspections,
			})
			prevInspections = cur
		}
		frontier = next
	}
	stats.EdgeInspections = inspections.Load()
	return newResult(status, nil, stats), nil
}

// misCheck is the operation of Lemma 4.1: scan v's remaining parents,
// lazily deleting dead ones by advancing the pointer, and report whether
// none remain (v is a root of the remaining priority DAG). Work is
// charged to deleted edges plus O(1) per call.
func misCheck(v int32, status []int32, parents *Parents, ptr []int32) (ready bool, inspections int64) {
	ps := parents.Of(v)
	i := ptr[v]
	for int(i) < len(ps) {
		inspections++
		if atomic.LoadInt32(&status[ps[i]]) == statusUndecided {
			ptr[v] = i
			return false, inspections
		}
		i++
	}
	ptr[v] = i
	return true, inspections
}
