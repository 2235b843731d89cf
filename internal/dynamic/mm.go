package dynamic

import (
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/parallel"
)

// unmatched marks a vertex with no mate (matching package convention).
const unmatched int32 = -1

// mmFrontierBucketBits is the number of leading priority-hash bits
// that form an edge's frontier bucket key: EdgePriority is a uniform
// hash, so its top bits are a monotone, evenly-loaded bucketing of the
// priority order no matter how slots are numbered.
const mmFrontierBucketBits = 10

// mmBucketKey maps an edge priority to its frontier bucket.
func mmBucketKey(prio uint64) int {
	return int(prio >> (64 - mmFrontierBucketBits))
}

// mmEdge is one live edge of the matching store: canonical endpoints
// and the churn-stable hash priority.
type mmEdge struct {
	u, v int32 // u < v
	prio uint64
}

// mmState maintains the greedy maximal matching of the overlaid graph
// under EdgePriority(seed) priorities. Edges live in slots (stable
// across unrelated updates, recycled through a free list); per-vertex
// incidence lists index the slots. The slot numbering is internal —
// priorities depend only on (seed, endpoints), so results are
// independent of insertion order and identical to a from-scratch run
// under EdgeOrder on the same graph.
type mmState struct {
	seed   uint64
	edges  []mmEdge
	status []int32
	inc    [][]int32
	free   []int32
	mate   []int32
	engine Engine

	fr frontier

	seedBuf   []int32
	activeBuf []int32
	outcome   []int32

	// Closure-engine scratch (differential-testing path).
	cs     core.ConeScratch
	cone   []int32
	oldBuf []int32
}

// newMMState computes the initial matching of g with the library's
// prefix round loop under the churn-stable edge order and converts it
// into slot form. Repair scratch is pre-sized to the edge universe so
// the first Apply pays no universe-sized allocation.
//
//lint:allow ctxround ctx is consumed by PrefixMM (checked every round); the remaining loops are bounded O(m) slot/incidence conversions, cheaper than a single solver round
func newMMState(ctx context.Context, g *graph.Graph, seed uint64, eng Engine, grain int) (*mmState, core.Stats, error) {
	el := g.EdgeList()
	m := el.NumEdges()
	ord := EdgeOrder(el, seed)
	res, err := matching.PrefixMM(ctx, el, ord, matching.Options{Options: engine.Options{Grain: grain}})
	if err != nil {
		return nil, core.Stats{}, err
	}
	ms := &mmState{seed: seed, engine: eng}
	ms.edges = make([]mmEdge, m)
	ms.status = make([]int32, m)
	for i, e := range el.Edges {
		ms.edges[i] = mmEdge{u: e.U, v: e.V, prio: EdgePriority(e.U, e.V, seed)}
		if res.InMatching[i] {
			ms.status[i] = statusIn
		} else {
			ms.status[i] = statusOut
		}
	}
	ms.mate = append([]int32(nil), res.Mate...)
	// Carve the incidence lists from one backing array with capacity
	// pinned to length, so a later append to one vertex's list
	// reallocates that list alone instead of corrupting its neighbors'.
	inc0 := graph.BuildIncidence(el)
	ms.inc = make([][]int32, el.N)
	for v := 0; v < el.N; v++ {
		lo, hi := inc0.Offsets[v], inc0.Offsets[v+1]
		ms.inc[v] = inc0.EdgeIDs[lo:hi:hi]
	}
	ms.fr.ensure(m)
	return ms, res.Stats, nil
}

// earlier reports whether slot a precedes slot b in the total edge
// priority order (priority, then canonical endpoints).
func (ms *mmState) earlier(a, b int32) bool {
	ea, eb := &ms.edges[a], &ms.edges[b]
	if ea.prio != eb.prio {
		return ea.prio < eb.prio
	}
	if ea.u != eb.u {
		return ea.u < eb.u
	}
	return ea.v < eb.v
}

// recEarlier reports whether the (detached) edge record rec precedes
// slot b.
func (ms *mmState) recEarlier(rec mmEdge, b int32) bool {
	eb := &ms.edges[b]
	if rec.prio != eb.prio {
		return rec.prio < eb.prio
	}
	if rec.u != eb.u {
		return rec.u < eb.u
	}
	return rec.v < eb.v
}

// insertEdge adds the validated-absent edge {u, v} and returns its
// slot. The new edge starts Out — the frontier engine's stored
// statuses are always trusted In/Out values guarded by pending marks,
// and "not in the matching yet" is exactly Out (it also makes the
// Changed counter read as "entered the matching" for insertions).
func (ms *mmState) insertEdge(u, v int32) int32 {
	if u > v {
		u, v = v, u
	}
	var slot int32
	if k := len(ms.free); k > 0 {
		slot = ms.free[k-1]
		ms.free = ms.free[:k-1]
	} else {
		slot = int32(len(ms.edges))
		ms.edges = append(ms.edges, mmEdge{})
		ms.status = append(ms.status, statusOut)
	}
	ms.edges[slot] = mmEdge{u: u, v: v, prio: EdgePriority(u, v, ms.seed)}
	ms.status[slot] = statusOut
	ms.inc[u] = append(ms.inc[u], slot)
	ms.inc[v] = append(ms.inc[v], slot)
	return slot
}

// deleteEdge removes the validated-present edge {u, v}, returning its
// record and whether it was matched (in which case its endpoints'
// mates are cleared).
func (ms *mmState) deleteEdge(u, v int32) (mmEdge, bool) {
	if u > v {
		u, v = v, u
	}
	slot := int32(-1)
	for _, f := range ms.inc[u] {
		if ms.edges[f].u == u && ms.edges[f].v == v {
			slot = f
			break
		}
	}
	removeSlot(&ms.inc[u], slot)
	removeSlot(&ms.inc[v], slot)
	rec := ms.edges[slot]
	wasIn := ms.status[slot] == statusIn
	if wasIn {
		ms.mate[u] = unmatched
		ms.mate[v] = unmatched
	}
	ms.edges[slot] = mmEdge{u: -1, v: -1}
	ms.status[slot] = statusOut
	ms.free = append(ms.free, slot)
	return rec, wasIn
}

// removeSlot swap-removes slot from an incidence list (order within a
// list is irrelevant).
func removeSlot(lst *[]int32, slot int32) {
	s := *lst
	for i, f := range s {
		if f == slot {
			s[i] = s[len(s)-1]
			*lst = s[:len(s)-1]
			return
		}
	}
}

// adjacent enumerates the live edges sharing an endpoint with slot e.
func (ms *mmState) adjacent(e int32, visit func(f int32)) {
	rec := &ms.edges[e]
	for _, f := range ms.inc[rec.u] {
		if f != e {
			visit(f)
		}
	}
	for _, f := range ms.inc[rec.v] {
		if f != e {
			visit(f)
		}
	}
}

// applyStructural applies the batch's edge insertions and deletions to
// the slot store and returns the repair seeds: an inserted edge must
// be decided, so it always seeds itself (deciding it In displaces
// exactly what its flip expansion re-decides); a deleted edge seeds
// its later adjacent edges only when it was matched — an unmatched
// edge never constrained anyone, so removing it is inert unless some
// other change reaches its neighborhood through that change's own
// seeds. A seed recorded early in the batch may have been deleted by a
// later update (its slot freed, possibly recycled): dead slots are
// dropped, and a recycled slot holds a freshly inserted edge, which is
// a legitimate (self-)seed either way.
func (ms *mmState) applyStructural(batch []Update) []int32 {
	seeds := ms.seedBuf[:0]
	for _, up := range batch {
		u, v := up.U, up.V
		if u > v {
			u, v = v, u
		}
		switch up.Op {
		case OpAdd:
			seeds = append(seeds, ms.insertEdge(u, v))
		default:
			rec, wasIn := ms.deleteEdge(u, v)
			if !wasIn {
				continue
			}
			for _, x := range [2]int32{rec.u, rec.v} {
				for _, f := range ms.inc[x] {
					if ms.recEarlier(rec, f) {
						seeds = append(seeds, f)
					}
				}
			}
		}
	}
	w := 0
	for _, s := range seeds {
		if ms.edges[s].u >= 0 {
			seeds[w] = s
			w++
		}
	}
	seeds = seeds[:w]
	ms.seedBuf = seeds
	return seeds
}

// repair applies the batch's structural changes to the edge store and
// re-resolves the damage region, dispatching on the configured engine
// (the matching analogue of misState.repair).
func (ms *mmState) repair(ctx context.Context, batch []Update, grain int) (RepairCost, error) {
	if ms.engine == EngineClosure {
		return ms.repairClosure(ctx, batch, grain)
	}
	return ms.repairFrontier(ctx, batch, grain)
}

// repairFrontier is the change-driven engine over the edge frontier:
// drain the seeds in hash-priority order, re-decide each popped edge
// against its earlier adjacent edges, and expand to later adjacent
// edges only when the popped edge's matched status actually flipped.
// Mate bookkeeping is deferred to the end of the drain (clears before
// sets), so transiently re-decided edges never corrupt the mate array.
func (ms *mmState) repairFrontier(ctx context.Context, batch []Update, grain int) (RepairCost, error) {
	seeds := ms.applyStructural(batch)
	cost := RepairCost{Seeds: len(seeds)}
	if len(seeds) == 0 {
		return cost, nil
	}
	f := &ms.fr
	f.begin(len(ms.edges), 1<<mmFrontierBucketBits)
	for _, e := range seeds {
		f.push(e, mmBucketKey(ms.edges[e].prio), ms.status[e])
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
					outcome[i], insp = ms.checkFrontier(active[i])
					local += insp
				}
				inspections.Add(local)
			})
			// Commit phase: settle decided edges; a flip enqueues the
			// edge's later adjacent edges.
			for i, e := range active {
				if outcome[i] == statusUndecided {
					continue
				}
				f.settle(e)
				if ms.status[e] != outcome[i] {
					ms.status[e] = outcome[i]
					cost.Flipped++
					rec := &ms.edges[e]
					for _, x := range [2]int32{rec.u, rec.v} {
						for _, ff := range ms.inc[x] {
							if ff != e && ms.earlier(e, ff) {
								f.push(ff, mmBucketKey(ms.edges[ff].prio), ms.status[ff])
							}
						}
					}
				}
			}
			cost.Rounds++
			cost.Attempts += int64(len(active))
			active = parallel.PackInPlace(active, grain, func(i int) bool {
				return outcome[i] == statusUndecided
			})
			active = f.q.TakeCurrent(active)
		}
	}
	ms.activeBuf = active
	cost.Inspections = inspections.Load()
	// Mate fix-up from the undo log: all In->Out clears first, then all
	// Out->In sets. The final In set is endpoint-disjoint (it is the
	// sequential matching), so the set pass is conflict-free, and the
	// clear pass runs against pre-repair mates, where every cleared
	// edge still owns both its endpoints.
	for i, e := range f.touched {
		if f.old[i] == statusIn && ms.status[e] == statusOut {
			rec := &ms.edges[e]
			ms.mate[rec.u] = unmatched
			ms.mate[rec.v] = unmatched
		}
	}
	for i, e := range f.touched {
		if f.old[i] != statusIn && ms.status[e] == statusIn {
			rec := &ms.edges[e]
			ms.mate[rec.u] = rec.v
			ms.mate[rec.v] = rec.u
		}
	}
	f.finish(&cost, ms.status)
	return cost, nil
}

// checkFrontier re-decides edge e against its earlier adjacent edges:
// a settled earlier In neighbor rules it out immediately (so an edge
// blocked by an unaffected matched neighbor terminates in O(1)-ish
// inspections), a pending earlier neighbor stalls it for the next
// round, and an all-settled, all-Out earlier neighborhood admits it.
func (ms *mmState) checkFrontier(e int32) (int32, int64) {
	rec := &ms.edges[e]
	pend := ms.fr.pend
	sawPending := false
	var inspections int64
	for _, x := range [2]int32{rec.u, rec.v} {
		for _, f := range ms.inc[x] {
			if f == e || !ms.earlier(f, e) {
				continue
			}
			inspections++
			if pend[f] {
				sawPending = true
				continue
			}
			if ms.status[f] == statusIn {
				return statusOut, inspections
			}
		}
	}
	if sawPending {
		return statusUndecided, inspections
	}
	return statusIn, inspections
}

// repairClosure is the conservative engine: reset and re-resolve the
// full downstream closure of the seeds with the restricted round loop.
// Kept as the frontier engine's differential-testing oracle.
func (ms *mmState) repairClosure(ctx context.Context, batch []Update, grain int) (RepairCost, error) {
	seeds := ms.applyStructural(batch)
	cost := RepairCost{Seeds: len(seeds)}
	if len(seeds) == 0 {
		return cost, nil
	}
	cone := ms.cs.DownstreamCone(len(ms.edges), seeds, ms.cone[:0], ms.adjacent,
		func(x, y int32) bool { return ms.earlier(x, y) })
	ms.cone = cone
	cost.Visited = len(cone)

	sortInt32s(cone, ms.earlier)
	old := engine.Grow32(&ms.oldBuf, len(cone))
	for i, e := range cone {
		old[i] = ms.status[e]
	}
	for _, e := range cone {
		if ms.status[e] == statusIn {
			rec := &ms.edges[e]
			ms.mate[rec.u] = unmatched
			ms.mate[rec.v] = unmatched
		}
		ms.status[e] = statusUndecided
	}

	var inspections atomic.Int64
	active := engine.Grow32(&ms.activeBuf, len(cone))
	copy(active, cone)
	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return cost, err
		}
		outcome := engine.Grow32(&ms.outcome, len(active))
		// Check phase: reads only statuses committed in previous
		// rounds.
		parallel.ForRange(len(active), grain, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				var insp int64
				outcome[i], insp = ms.checkClosure(active[i])
				local += insp
			}
			inspections.Add(local)
		})
		// Update phase: same-round In commits are endpoint-disjoint (two
		// adjacent edges cannot both pass the check — the later one saw
		// the earlier one undecided), so the mate writes are race-free.
		parallel.ForRange(len(active), grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if outcome[i] == statusUndecided {
					continue
				}
				e := active[i]
				ms.status[e] = outcome[i]
				if outcome[i] == statusIn {
					rec := &ms.edges[e]
					ms.mate[rec.u] = rec.v
					ms.mate[rec.v] = rec.u
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
	for i, e := range cone {
		if ms.status[e] != old[i] {
			cost.Changed++
		}
	}
	return cost, nil
}

// checkClosure decides cone edge e against the statuses of its earlier
// adjacent edges: any matched earlier neighbor rules it out, any
// undecided earlier neighbor stalls it for the next round, and an
// all-resolved earlier neighborhood admits it — the acceptance rule of
// the sequential greedy matching.
func (ms *mmState) checkClosure(e int32) (int32, int64) {
	rec := &ms.edges[e]
	sawUndecided := false
	var inspections int64
	for _, x := range [2]int32{rec.u, rec.v} {
		for _, f := range ms.inc[x] {
			if f == e || !ms.earlier(f, e) {
				continue
			}
			inspections++
			switch ms.status[f] {
			case statusIn:
				return statusOut, inspections
			case statusUndecided:
				sawUndecided = true
			}
		}
	}
	if sawUndecided {
		return statusUndecided, inspections
	}
	return statusIn, inspections
}

// pairs returns the current matching as canonical edges sorted
// lexicographically.
func (ms *mmState) pairs() []graph.Edge {
	var out []graph.Edge
	for slot, st := range ms.status {
		if st == statusIn {
			rec := &ms.edges[slot]
			out = append(out, graph.Edge{U: rec.u, V: rec.v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// mateCopy returns a copy of the mate array.
func (ms *mmState) mateCopy() []int32 {
	return append([]int32(nil), ms.mate...)
}
