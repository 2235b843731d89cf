package matching

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
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
// The run is in rank space, like PrefixMM: the edges are gathered into
// rank order (into the workspace's edge buffer), statuses and claims
// are indexed by rank, and the incidence of the gathered edges lists
// each vertex's ranks in increasing order — priority order, the paper's
// Lemma 5.3 preprocessing, with no sort.
func RootSetMM(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	m := el.NumEdges()
	if ord.Len() != m {
		panic("matching: order size does not match edge list")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	edges := el.GatherByRank(ws.edgeBuf(), ord.Order)
	inc := graph.BuildIncidence(graph.EdgeList{N: el.N, Edges: edges})
	status := engine.Grow32(&ws.status, m)
	engine.Fill32(status, statusUndecided)
	mate := engine.Grow32(&ws.mate, el.N)
	engine.Fill32(mate, unmatched)
	// vptr[v] indexes the first not-yet-skipped entry of v's sorted
	// incident list (lazy deletion).
	vptr := engine.Grow32(&ws.reserv, el.N)
	engine.Fill32(vptr, 0)
	// claimed[r] dedups ready-edge discovery: an edge can be found ready
	// from both endpoints simultaneously.
	claimed := engine.Grow32(&ws.claimed, m)
	engine.Fill32(claimed, 0)
	// checkStamp[v] ensures each far endpoint is checked once per step.
	checkStamp := engine.Grow32(&ws.stamp, el.N)
	engine.Fill32(checkStamp, -1)

	stats := Stats{}
	var inspections atomic.Int64
	var prevInspections int64

	// Initial ready set: edges that head both endpoints' lists.
	frontier := parallel.PackIndex(m, opt.Grain, func(i int) bool {
		r := int32(i)
		edge := edges[r]
		return inc.Incident(edge.U)[0] == r && inc.Incident(edge.V)[0] == r
	})

	resolved := 0
	for resolved < m {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(frontier) == 0 {
			panic("matching: RootSetMM frontier empty with unresolved edges")
		}
		step := int32(stats.Rounds)
		stats.Rounds++
		stats.Attempts += int64(len(frontier))

		// Phase 1: match ready edges and lazily delete their neighbors.
		// killedFar[i] collects, for frontier edge i, the far endpoints
		// of the edges its matching deleted.
		killedFar := make([][]int32, len(frontier))
		var decidedDelta atomic.Int64
		parallel.ForRange(len(frontier), opt.Grain, func(lo, hi int) {
			var local, decided int64
			for i := lo; i < hi; i++ {
				e := frontier[i]
				edge := edges[e]
				atomic.StoreInt32(&status[e], statusIn)
				atomic.StoreInt32(&mate[edge.U], edge.V)
				atomic.StoreInt32(&mate[edge.V], edge.U)
				decided++
				var far []int32
				for _, endpoint := range [2]int32{edge.U, edge.V} {
					ids := inc.Incident(endpoint)
					local += int64(len(ids))
					for _, f := range ids {
						if f == e {
							continue
						}
						if atomic.CompareAndSwapInt32(&status[f], statusUndecided, statusOut) {
							decided++
							far = append(far, edges[f].Other(endpoint))
						}
					}
				}
				killedFar[i] = far
			}
			inspections.Add(local)
			decidedDelta.Add(decided)
		})
		resolved += int(decidedDelta.Load())

		// Phase 2: mmCheck the far endpoints; each check may surface one
		// newly ready edge. A far endpoint matched this step is skipped:
		// it has no undecided edge left, and which of its two matched
		// ends won the kill must not decide whether it is scanned. The
		// checks read start-of-step pointers only; each returns its
		// vertex's advanced pointer (a (z, ptr) pair in moved), and the
		// pointers are published after the fork-join.
		var mu sync.Mutex
		var chunks, advances [][]int32
		parallel.ForRange(len(frontier), opt.Grain, func(lo, hi int) {
			var local int64
			var found, moved []int32
			for i := lo; i < hi; i++ {
				for _, z := range killedFar[i] {
					if mate[z] != unmatched {
						continue
					}
					old := atomic.LoadInt32(&checkStamp[z])
					if old == step || !atomic.CompareAndSwapInt32(&checkStamp[z], old, step) {
						continue // another worker already checks z this step
					}
					ready, ptr, insp := mmCheck(z, edges, inc, status, vptr)
					local += insp
					moved = append(moved, z, ptr)
					if ready >= 0 && atomic.CompareAndSwapInt32(&claimed[ready], 0, 1) {
						found = append(found, ready)
					}
				}
			}
			inspections.Add(local)
			if len(moved) > 0 {
				mu.Lock()
				chunks = append(chunks, found)
				advances = append(advances, moved)
				mu.Unlock()
			}
		})
		for _, moved := range advances {
			for k := 0; k < len(moved); k += 2 {
				vptr[moved[k]] = moved[k+1]
			}
		}
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
			opt.OnRound(core.RoundStat{
				Round:           stats.Rounds,
				Attempted:       len(frontier),
				Accepted:        int(decidedDelta.Load()),
				EdgeInspections: cur - prevInspections,
			})
			prevInspections = cur
		}
		frontier = next
	}
	stats.EdgeInspections = inspections.Load()
	in, ids := engine.Members(status, ord.Order)
	return pairsResult(el, in, ids, stats), nil
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
