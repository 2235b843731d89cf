package dynamic

import (
	"context"
	"sort"

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

	fr frontier

	seedBuf []int32
}

// newMMState computes the initial matching of g with the library's
// prefix round loop under the churn-stable edge order and converts it
// into slot form. Repair scratch is pre-sized to the edge universe so
// the first Apply pays no universe-sized allocation.
//
//lint:allow ctxround ctx is consumed by PrefixMM (checked every round); the remaining loops are bounded O(m) slot/incidence conversions, cheaper than a single solver round
func newMMState(ctx context.Context, g *graph.Graph, seed uint64, grain int) (*mmState, core.Stats, error) {
	el := g.EdgeList()
	m := el.NumEdges()
	ord, prio := edgeOrder(el, seed)
	res, err := matching.PrefixMM(ctx, el, ord, matching.Options{Options: engine.Options{Grain: grain}})
	if err != nil {
		return nil, core.Stats{}, err
	}
	ms := &mmState{seed: seed}
	ms.edges = make([]mmEdge, m)
	ms.status = make([]int32, m)
	parallel.ForRange(m, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			ms.edges[i] = mmEdge{u: e.U, v: e.V, prio: prio[i]}
			ms.status[i] = statusOut
			if res.InMatching[i] {
				ms.status[i] = statusIn
			}
		}
	})
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
// slot. The new edge starts Out — the frontier's stored statuses are
// always trusted In/Out values guarded by pending marks, and "not in
// the matching yet" is exactly Out (it also makes the Changed counter
// read as "entered the matching" for insertions).
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
// drains the frontier seeded by them (the matching analogue of
// misState.repair), then brings the mate array up to date.
func (ms *mmState) repair(ctx context.Context, batch []Update, grain int) (RepairCost, error) {
	// applyStructural may grow ms.status, so it runs before the drain
	// reads the slice.
	seeds := ms.applyStructural(batch)
	cost, err := ms.fr.drain(ctx, ms, ms.status, seeds, 1<<mmFrontierBucketBits, grain)
	if err != nil || cost.Seeds == 0 {
		return cost, err
	}
	ms.fixMates()
	return cost, nil
}

// key maps edge e's priority to its frontier bucket.
func (ms *mmState) key(e int32) int {
	return int(ms.edges[e].prio >> (64 - mmFrontierBucketBits))
}

// decide re-decides edge e against its earlier adjacent edges. A
// settled earlier In neighbor rules it out at once, so an edge blocked
// by an unaffected matched neighbor terminates in O(1)-ish
// inspections.
func (ms *mmState) decide(e int32) (int32, int64) {
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

// expand enqueues the later adjacent edges of flipped edge e.
func (ms *mmState) expand(e int32) {
	rec := &ms.edges[e]
	for _, x := range [2]int32{rec.u, rec.v} {
		for _, f := range ms.inc[x] {
			if f != e && ms.earlier(e, f) {
				ms.fr.push(f, ms.key(f), ms.status[f])
			}
		}
	}
}

// fixMates applies the drain's undo log to the mate array: all In->Out
// clears first, then all Out->In sets. Mate writes wait for the end of
// the drain so transiently re-decided edges never corrupt the array.
// The final In set is endpoint-disjoint (it is the sequential
// matching), so the set pass is conflict-free, and the clear pass runs
// against pre-repair mates, where every cleared edge still owns both
// its endpoints.
func (ms *mmState) fixMates() {
	f := &ms.fr
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
