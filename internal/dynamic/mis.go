package dynamic

import (
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Item statuses, identical in meaning to the core/matching packages'.
// Under the frontier engine the stored status is always In or Out (a
// pending mark, not a stored sentinel, says "do not trust me yet");
// statusUndecided appears only as the closure engine's stored reset
// value and as both engines' per-round stall outcome.
const (
	statusUndecided int32 = 0
	statusIn        int32 = 1
	statusOut       int32 = 2
)

// misFrontierBuckets bounds the frontier queue's bucket count (and so
// its per-repair reset cost) for MIS rank bucketing.
const misFrontierBuckets = 1024

// misState maintains the greedy MIS of the overlay under the fixed
// vertex order ord.
type misState struct {
	ord    core.Order
	status []int32
	engine Engine

	// Frontier engine: rank >> shift is the bucket key.
	shift   uint
	buckets int
	fr      frontier

	seedBuf   []int32
	activeBuf []int32
	outcome   []int32

	// Closure-engine scratch (differential-testing path).
	cs     core.ConeScratch
	cone   []int32
	oldBuf []int32
}

// newMISState computes the initial MIS of g under ord with the
// library's prefix round loop and captures its status vector. Repair
// scratch is pre-sized to the vertex universe so the first Apply pays
// no universe-sized allocation.
//
//lint:allow ctxround ctx is consumed by PrefixMIS (checked every round); the remaining loop is one bounded O(n) status conversion, cheaper than a single solver round
func newMISState(ctx context.Context, g *graph.Graph, ord core.Order, eng Engine, grain int) (*misState, core.Stats, error) {
	res, err := core.PrefixMIS(ctx, g, ord, core.Options{Options: engine.Options{Grain: grain}})
	if err != nil {
		return nil, core.Stats{}, err
	}
	n := g.NumVertices()
	status := make([]int32, n)
	for v := 0; v < n; v++ {
		if res.InSet[v] {
			status[v] = statusIn
		} else {
			status[v] = statusOut
		}
	}
	ms := &misState{ord: ord, status: status, engine: eng}
	ms.shift = core.FrontierBucketShift(n, misFrontierBuckets)
	ms.buckets = ((n - 1) >> ms.shift) + 1
	if n == 0 {
		ms.buckets = 1
	}
	ms.fr.ensure(n)
	return ms, res.Stats, nil
}

// seedsFor collects the MIS repair seeds of a validated batch, applied
// against the PRE-repair statuses: for each changed edge {x, w} with x
// earlier, w is a seed exactly when status[x] == In — an inserted or
// deleted edge to an Out vertex cannot change w's decision (w's rule
// only asks "is any earlier neighbor In"), and if x itself flips later
// it necessarily enters the frontier, whose change-driven expansion
// reaches w through the (inserted) edge or re-derives w's independence
// from the (deleted) edge's absence.
func (ms *misState) seedsFor(batch []Update) []int32 {
	rank := ms.ord.Rank
	seeds := ms.seedBuf[:0]
	for _, up := range batch {
		x, w := up.U, up.V
		if rank[x] > rank[w] {
			x, w = w, x
		}
		if ms.status[x] == statusIn {
			seeds = append(seeds, w)
		}
	}
	ms.seedBuf = seeds
	return seeds
}

// repair re-resolves the damage region after the overlay has been
// mutated by the batch, dispatching on the configured engine. ctx is
// checked once per round; a cancellation error leaves the state
// inconsistent and the caller must mark the maintainer broken.
func (ms *misState) repair(ctx context.Context, ov *overlay, batch []Update, grain int) (RepairCost, error) {
	if ms.engine == EngineClosure {
		return ms.repairClosure(ctx, ov, batch, grain)
	}
	return ms.repairFrontier(ctx, ov, batch, grain)
}

// repairFrontier is the change-driven engine: drain a priority-ordered
// frontier seeded by the directly-perturbed vertices, re-decide each
// popped vertex against its earlier neighborhood, and expand to later
// neighbors only when the popped vertex's membership actually flipped.
// Within a rank bucket, decisions are committed with two-phase
// check/commit rounds: a vertex stalls while an earlier neighbor is
// pending, and a flip re-enqueues any later vertex that was decided
// too early, so the final state is bit-identical to the sequential
// greedy on the mutated graph no matter how ranks fall into buckets.
func (ms *misState) repairFrontier(ctx context.Context, ov *overlay, batch []Update, grain int) (RepairCost, error) {
	seeds := ms.seedsFor(batch)
	cost := RepairCost{Seeds: len(seeds)}
	if len(seeds) == 0 {
		return cost, nil
	}
	rank := ms.ord.Rank
	f := &ms.fr
	f.begin(ov.n, ms.buckets)
	for _, v := range seeds {
		f.push(v, int(rank[v])>>ms.shift, ms.status[v])
	}
	var inspections atomic.Int64
	active := ms.activeBuf[:0]
	for {
		var ok bool
		active, _, ok = f.q.PopBucket(active[:0])
		if !ok {
			break
		}
		for len(active) > 0 {
			if err := ctx.Err(); err != nil {
				ms.activeBuf = active
				return cost, err
			}
			outcome := engine.Grow32(&ms.outcome, len(active))
			// Check phase: reads only statuses and pending marks
			// committed before this round.
			parallel.ForRange(len(active), grain, func(lo, hi int) {
				var local int64
				for i := lo; i < hi; i++ {
					var insp int64
					outcome[i], insp = ms.checkFrontier(ov, active[i])
					local += insp
				}
				inspections.Add(local)
			})
			// Commit phase: settle decided vertices; a flip enqueues
			// the vertex's later neighbors (the change-driven
			// expansion). Sequential — the push bookkeeping is cheap
			// next to the parallel scans, and its order fixes the
			// counters machine-independently.
			for i, v := range active {
				if outcome[i] == statusUndecided {
					continue
				}
				f.settle(v)
				if ms.status[v] != outcome[i] {
					ms.status[v] = outcome[i]
					cost.Flipped++
					rv := rank[v]
					ov.visit(v, func(u int32) bool {
						if rank[u] > rv {
							f.push(u, int(rank[u])>>ms.shift, ms.status[u])
						}
						return true
					})
				}
			}
			cost.Rounds++
			cost.Attempts += int64(len(active))
			active = parallel.PackInPlace(active, grain, func(i int) bool {
				return outcome[i] == statusUndecided
			})
			// Same-bucket pushes join the next round.
			active = f.q.TakeCurrent(active)
		}
	}
	ms.activeBuf = active
	cost.Inspections = inspections.Load()
	f.finish(&cost, ms.status)
	return cost, nil
}

// checkFrontier re-decides vertex v against its earlier neighbors: a
// settled earlier In neighbor rules it out immediately (the hub
// short-circuit — an unaffected high-degree vertex re-derives Out
// without scanning its whole neighborhood), a pending earlier neighbor
// stalls it for the next round, and an all-settled, all-Out earlier
// neighborhood admits it.
func (ms *misState) checkFrontier(ov *overlay, v int32) (int32, int64) {
	rank := ms.ord.Rank
	rv := rank[v]
	pend := ms.fr.pend
	sawPending := false
	decision := statusIn
	var inspections int64
	ov.visit(v, func(u int32) bool {
		if rank[u] >= rv {
			return true
		}
		inspections++
		if pend[u] {
			sawPending = true
			return true
		}
		if ms.status[u] == statusIn {
			decision = statusOut
			return false
		}
		return true
	})
	if decision == statusOut {
		return statusOut, inspections
	}
	if sawPending {
		return statusUndecided, inspections
	}
	return statusIn, inspections
}

// repairClosure is the conservative engine (the original subsystem):
// compute the full downstream closure of the seeds, reset it, and
// re-run the prefix round loop restricted to it — every closure item
// pays for re-resolution whether or not anything about it changed.
// Kept as the frontier engine's differential-testing oracle.
func (ms *misState) repairClosure(ctx context.Context, ov *overlay, batch []Update, grain int) (RepairCost, error) {
	seeds := ms.seedsFor(batch)
	cost := RepairCost{Seeds: len(seeds)}
	if len(seeds) == 0 {
		return cost, nil
	}
	rank := ms.ord.Rank
	cone := ms.cs.DownstreamCone(ov.n, seeds, ms.cone[:0],
		func(x int32, visit func(y int32)) {
			ov.visit(x, func(u int32) bool {
				visit(u)
				return true
			})
		},
		func(x, y int32) bool { return rank[y] > rank[x] },
	)
	ms.cone = cone
	cost.Visited = len(cone)

	// Rank-sort the cone so the active window is the earliest
	// unresolved vertices, capture the pre-repair statuses for the
	// Changed count, then reset.
	sortByRank(cone, rank)
	old := engine.Grow32(&ms.oldBuf, len(cone))
	for i, v := range cone {
		old[i] = ms.status[v]
	}
	for _, v := range cone {
		ms.status[v] = statusUndecided
	}

	var inspections atomic.Int64
	// The round loop packs its active set in place; run it on a copy so
	// cone keeps its rank order for the Changed diff below.
	active := engine.Grow32(&ms.activeBuf, len(cone))
	copy(active, cone)
	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return cost, err
		}
		outcome := engine.Grow32(&ms.outcome, len(active))
		// Check phase: reads only statuses written in previous rounds.
		parallel.ForRange(len(active), grain, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				var insp int64
				outcome[i], insp = ms.checkClosure(ov, active[i])
				local += insp
			}
			inspections.Add(local)
		})
		// Update phase: each vertex writes only its own status.
		parallel.ForRange(len(active), grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if outcome[i] != statusUndecided {
					ms.status[active[i]] = outcome[i]
				}
			}
		})
		cost.Rounds++
		cost.Attempts += int64(len(active))
		active = parallel.PackInPlace(active, grain, func(i int) bool {
			return outcome[i] == statusUndecided
		})
	}
	cost.Inspections = inspections.Load()
	for i, v := range cone {
		if ms.status[v] != old[i] {
			cost.Changed++
		}
	}
	return cost, nil
}

// checkClosure decides cone vertex v against the current statuses of
// its earlier neighbors, stalling on stored statusUndecided (the
// closure engine's reset value).
func (ms *misState) checkClosure(ov *overlay, v int32) (int32, int64) {
	rank := ms.ord.Rank
	rv := rank[v]
	sawUndecided := false
	decision := statusIn
	var inspections int64
	ov.visit(v, func(u int32) bool {
		if rank[u] >= rv {
			return true
		}
		inspections++
		switch ms.status[u] {
		case statusIn:
			decision = statusOut
			return false
		case statusUndecided:
			sawUndecided = true
		}
		return true
	})
	if decision == statusOut {
		return statusOut, inspections
	}
	if sawUndecided {
		return statusUndecided, inspections
	}
	return statusIn, inspections
}

// result builds the current MIS as a core.Result (Stats left zero: the
// per-batch costs live in RepairStats).
func (ms *misState) result() *core.Result {
	n := len(ms.status)
	in := make([]bool, n)
	parallel.For(n, 4096, func(i int) {
		in[i] = ms.status[i] == statusIn
	})
	set := parallel.PackIndex(n, 4096, func(i int) bool { return in[i] })
	return &core.Result{InSet: in, Set: set}
}

// sortByRank sorts vertices ascending by rank.
func sortByRank(vs []int32, rank []int32) {
	sortInt32s(vs, func(a, b int32) bool { return rank[a] < rank[b] })
}

// sortInt32s sorts s by the given strict order.
func sortInt32s(s []int32, less func(a, b int32) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}
