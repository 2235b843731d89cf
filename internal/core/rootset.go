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
// runs Lemma 4.1's pointer check (checkPointered) on the out-neighbors'
// children to discover the next root set. Each parent edge is skipped
// past at most once (the lazy deletion argument of Lemma 4.1), so total
// work is O(n + m); the number of steps equals the dependence length of
// the priority DAG exactly, which Theorem 3.5 bounds by O(log^2 n)
// w.h.p. for random orders. ctx is checked once per step, and buffers
// come from opt.Workspace when set.
//
// The run is in rank space, like PrefixMIS: frontier, statuses,
// pointers and claim stamps are indexed by rank, the parents are
// opt.Parents when set (built for this run otherwise), and the children
// are the other side of the same rank-space partition.
func RootSetMIS(ctx context.Context, g *graph.Graph, ord Order, opt Options) (*Result, error) {
	prob, ws := newMISProblem(g, ord, opt)
	status, parents := prob.status, prob.parents
	children := buildChildren(g, ord)
	n := len(status)
	// ptr[r] indexes the first not-yet-skipped parent of r; parents
	// before it are known dead (lazy deletion, Lemma 4.1).
	ptr := engine.Grow32(&ws.ptr, n)
	engine.Fill32(ptr, 0)
	// claimStamp[r] records the last step at which some neighbor claimed
	// the right to check r. This is the concurrent-write
	// deduplication of Lemma 4.2 ("whichever write succeeds is
	// responsible for the check"): per step, at most one worker checks r.
	claimStamp := engine.Grow32(&ws.claim, n)
	engine.Fill32(claimStamp, -1)

	stats := Stats{}
	var inspections atomic.Int64
	var prevInspections int64

	// Initial roots: ranks with no parents at all.
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

		// Phase 2: check the children of killed vertices; the successful
		// claimant packs ready vertices into the next frontier.
		// Claim-once-per-step means each candidate is examined at most
		// once per step. Statuses are final for the step, and after
		// phase 1 no undecided vertex has a parent in the set, so a check
		// finds its vertex ready (statusIn) or stalled, never out.
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
						if status[c] != statusUndecided {
							continue
						}
						old := atomic.LoadInt32(&claimStamp[c])
						if old == step || !atomic.CompareAndSwapInt32(&claimStamp[c], old, step) {
							continue // someone else claimed c this step
						}
						st, insp := checkPointered(c, status, parents, ptr)
						local += insp
						if st == statusIn {
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
				Round:           stats.Rounds,
				Attempted:       len(frontier),
				Accepted:        int(decidedThisStep.Load()),
				EdgeInspections: cur - prevInspections,
			})
			prevInspections = cur
		}
		frontier = next
	}
	stats.EdgeInspections = inspections.Load()
	return newResult(status, ord.Order, stats), nil
}
