package core

import (
	"math/bits"

	"repro/internal/graph"
)

// This file contains exact O(n + m) analyzers for the priority-DAG
// quantities the paper's theory section bounds. They process vertices in
// priority order, so every earlier neighbor is already resolved when a
// vertex is reached — a sequential sweep that computes exactly what the
// parallel execution would do without running it.

// DependenceInfo is the per-vertex outcome of the dependence analysis.
type DependenceInfo struct {
	// Steps is the dependence length: the number of iterations Algorithm
	// 2 needs (Theorem 3.5: O(log Delta log n) w.h.p. for random orders).
	Steps int
	// RemoveStep[v] is the 1-based step at which Algorithm 2 removes v
	// from the priority DAG (accepting it into the MIS or discarding it
	// as a neighbor of an accepted vertex).
	RemoveStep []int32
	// InSet[v] reports whether v belongs to the lexicographically-first
	// MIS — a byproduct that doubles as a reference implementation.
	InSet []bool
}

// DependenceSteps simulates Algorithm 2 analytically: processing
// vertices in priority order, a vertex enters the MIS one step after its
// last-removed earlier neighbor is gone, and a discarded vertex leaves
// at the step its first (earliest-accepted) MIS neighbor enters. The
// maximum removal step is the dependence length.
func DependenceSteps(g *graph.Graph, ord Order) DependenceInfo {
	n := g.NumVertices()
	if ord.Len() != n {
		panic("core: order size does not match graph")
	}
	rank := ord.Rank
	removeStep := make([]int32, n)
	inSet := make([]bool, n)
	steps := int32(0)
	const inf = int32(1<<31 - 1)
	for r := 0; r < n; r++ {
		v := ord.Order[r]
		rv := rank[v]
		maxRemove := int32(0)
		firstIn := inf
		for _, u := range g.Neighbors(v) {
			if rank[u] >= rv {
				continue
			}
			if inSet[u] && removeStep[u] < firstIn {
				firstIn = removeStep[u]
			}
			if removeStep[u] > maxRemove {
				maxRemove = removeStep[u]
			}
		}
		if firstIn != inf {
			// v is knocked out at the step its earliest MIS neighbor is
			// accepted.
			removeStep[v] = firstIn
		} else {
			inSet[v] = true
			removeStep[v] = maxRemove + 1
		}
		if removeStep[v] > steps {
			steps = removeStep[v]
		}
	}
	return DependenceInfo{Steps: int(steps), RemoveStep: removeStep, InSet: inSet}
}

// LongestPath returns the length (number of vertices) of the longest
// directed path in the priority DAG of (g, ord). The paper notes this
// upper-bounds the dependence length but can be much larger: on the
// complete graph it is n while the dependence length is O(1).
func LongestPath(g *graph.Graph, ord Order) int {
	n := g.NumVertices()
	rank := ord.Rank
	level := make([]int32, n)
	best := int32(0)
	for r := 0; r < n; r++ {
		v := ord.Order[r]
		rv := rank[v]
		l := int32(1)
		for _, u := range g.Neighbors(v) {
			if rank[u] < rv && level[u]+1 > l {
				l = level[u] + 1
			}
		}
		level[v] = l
		if l > best {
			best = l
		}
	}
	return int(best)
}

// PrefixLongestPath returns the length of the longest directed path in
// the priority DAG induced by the first prefixSize vertices of the
// order — the quantity bounded by Lemma 3.3 / Corollary 3.4 (O(log n)
// for an O(log(n)/d)-prefix of a degree-<=d graph).
func PrefixLongestPath(g *graph.Graph, ord Order, prefixSize int) int {
	n := g.NumVertices()
	if prefixSize > n {
		prefixSize = n
	}
	rank := ord.Rank
	level := make([]int32, n)
	best := int32(0)
	for r := 0; r < prefixSize; r++ {
		v := ord.Order[r]
		rv := rank[v]
		l := int32(1)
		for _, u := range g.Neighbors(v) {
			if rank[u] < rv && level[u]+1 > l {
				l = level[u] + 1
			}
		}
		level[v] = l
		if l > best {
			best = l
		}
	}
	return int(best)
}

// MaxDegreeAfterPrefix computes the maximum degree of the graph that
// remains after the first prefixSize vertices are fully processed: the
// MIS of the prefix is computed, and the prefix plus all neighbors of
// its MIS members are removed (one round of Algorithm 3). Lemma 3.1
// shows this is at most d w.h.p. once the prefix has size l*n/d.
func MaxDegreeAfterPrefix(g *graph.Graph, ord Order, prefixSize int) int {
	n := g.NumVertices()
	if prefixSize > n {
		prefixSize = n
	}
	rank := ord.Rank
	// Sequential greedy over the prefix only.
	status := make([]int32, n)
	for r := 0; r < prefixSize; r++ {
		v := ord.Order[r]
		if status[v] != statusUndecided {
			continue
		}
		status[v] = statusIn
		for _, u := range g.Neighbors(v) {
			if status[u] == statusUndecided {
				status[u] = statusOut
			}
		}
	}
	// Remaining vertices: outside the prefix and not adjacent to the
	// prefix's MIS. (Vertices marked out are removed; undecided prefix
	// vertices cannot exist because the prefix was fully processed.)
	removed := make([]bool, n)
	for r := 0; r < prefixSize; r++ {
		removed[ord.Order[r]] = true
	}
	for v := 0; v < n; v++ {
		if status[v] == statusOut {
			removed[v] = true
		}
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if removed[v] {
			continue
		}
		d := 0
		for _, u := range g.Neighbors(int32(v)) {
			if !removed[u] {
				d++
			}
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	_ = rank
	return maxDeg
}

// FrontierQueue is a monotone bucket priority queue over int32 items,
// the work-frontier structure of change-driven repair. Items are
// pushed with a small integer bucket key that must be monotone in the
// priority order (equal priorities may share a bucket); buckets are
// drained in increasing key order, and pushes during a drain may only
// target the bucket currently being drained or a later one — exactly
// the discipline of downstream repair, where an item's flip can only
// disturb strictly later items. Under that discipline every operation
// is O(1) plus an amortized bitmap scan, with no per-item comparisons.
//
// Bucket storage is retained across Reset calls, so a queue owned by a
// long-lived repair state allocates only while the frontier reaches a
// new high-water mark. The zero value is ready for Reset. Not safe for
// concurrent use.
type FrontierQueue struct {
	buckets [][]int32
	words   []uint64 // bit k set <=> buckets[k] is non-empty
	cur     int      // key of the bucket currently (or last) drained
}

// Reset prepares the queue for a new drain over numBuckets keys,
// emptying any buckets left behind by an aborted previous drain.
func (q *FrontierQueue) Reset(numBuckets int) {
	if numBuckets < 1 {
		numBuckets = 1
	}
	if cap(q.buckets) >= numBuckets {
		q.buckets = q.buckets[:numBuckets]
	} else {
		grown := make([][]int32, numBuckets)
		copy(grown, q.buckets)
		q.buckets = grown
	}
	words := (numBuckets + 63) >> 6
	if cap(q.words) >= words {
		q.words = q.words[:words]
	} else {
		// Copy the old bitmap into the grown one so leftover buckets
		// from an aborted drain are still visible to the cleanup below.
		grown := make([]uint64, words)
		copy(grown, q.words)
		q.words = grown
	}
	for i, w := range q.words {
		for w != 0 {
			k := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			q.buckets[k] = q.buckets[k][:0]
		}
		q.words[i] = 0
	}
	q.cur = 0
}

// Push enqueues item into bucket key. key must be in [0, numBuckets)
// and at least the key of the bucket currently being drained; the
// caller (not the queue) is responsible for not enqueueing an item
// twice.
func (q *FrontierQueue) Push(item int32, key int) {
	q.buckets[key] = append(q.buckets[key], item)
	q.words[key>>6] |= 1 << (key & 63)
}

// PopBucket moves the contents of the lowest non-empty bucket at or
// after the drain cursor into dst (appended), empties that bucket, and
// advances the cursor to it. ok is false when the queue is empty; the
// key of the drained bucket is returned for callers that key their
// own bookkeeping by bucket.
func (q *FrontierQueue) PopBucket(dst []int32) (out []int32, key int, ok bool) {
	for w := q.cur >> 6; w < len(q.words); w++ {
		word := q.words[w]
		if w == q.cur>>6 {
			word &= ^uint64(0) << (q.cur & 63)
		}
		if word == 0 {
			continue
		}
		k := w<<6 + bits.TrailingZeros64(word)
		q.cur = k
		return q.take(k, dst), k, true
	}
	return dst, 0, false
}

// TakeCurrent moves any items pushed into the bucket the cursor is on
// since it was popped into dst (appended). Draining a bucket to a
// fixed point — PopBucket, then TakeCurrent after each round until it
// returns nothing — is how the repair engines absorb same-bucket
// pushes without re-scanning the whole queue.
func (q *FrontierQueue) TakeCurrent(dst []int32) []int32 {
	if q.words[q.cur>>6]&(1<<(q.cur&63)) == 0 {
		return dst
	}
	return q.take(q.cur, dst)
}

// take moves bucket k into dst. The bucket keeps its backing array
// (truncated), so later pushes into k cannot alias the returned items.
func (q *FrontierQueue) take(k int, dst []int32) []int32 {
	b := q.buckets[k]
	dst = append(dst, b...)
	q.buckets[k] = b[:0]
	q.words[k>>6] &^= 1 << (k & 63)
	return dst
}

// FrontierBucketShift returns the power-of-two bucket width, as a
// shift, that splits a universe of n priority ranks into at most
// target buckets: rank >> shift is then a valid monotone FrontierQueue
// key. Wider buckets mean fewer queue steps but more intra-bucket
// stall rounds; target bounds the queue's O(numBuckets) reset cost.
func FrontierBucketShift(n, target int) uint {
	if target < 1 {
		target = 1
	}
	shift := uint(0)
	for (n+(1<<shift)-1)>>shift > target {
		shift++
	}
	return shift
}

// PrefixInternalEdges counts the edges with both endpoints in the first
// prefixSize vertices of the order — the "internal edges" of Lemma 4.3,
// expected O(k|P|) for a (k/d)-prefix of a degree-<=d graph.
func PrefixInternalEdges(g *graph.Graph, ord Order, prefixSize int) (edges int64, verticesWithInternal int) {
	n := g.NumVertices()
	if prefixSize > n {
		prefixSize = n
	}
	inPrefix := make([]bool, n)
	for r := 0; r < prefixSize; r++ {
		inPrefix[ord.Order[r]] = true
	}
	for r := 0; r < prefixSize; r++ {
		v := ord.Order[r]
		has := false
		for _, u := range g.Neighbors(v) {
			if inPrefix[u] {
				edges++
				has = true
			}
		}
		if has {
			verticesWithInternal++
		}
	}
	return edges / 2, verticesWithInternal
}
