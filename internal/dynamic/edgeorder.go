package dynamic

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// The edge-order sort's geometry. Blocks and buckets depend on the edge
// count alone, never on the processor count, so every machine runs the
// same passes over the same pieces.
const (
	// edgeOrderBlock is the number of edges per block of the hashing
	// and scatter passes.
	edgeOrderBlock = 1 << 14
	// edgeOrderTopBits is the number of leading priority bits that pick
	// an edge's bucket.
	edgeOrderTopBits = 8
)

// EdgeOrder returns the priority order EdgePriority induces on an
// explicit edge list: edge identifiers sorted by (priority, U, V), and
// copies of one edge (equal U and V) by identifier. A from-scratch
// greedy matching under this order is exactly what a Maintainer
// maintains incrementally for the same seed — the equivalence the fuzz
// tests assert.
func EdgeOrder(el graph.EdgeList, seed uint64) core.Order {
	ord, _ := edgeOrder(el, seed)
	return ord
}

// edgeOrder is EdgeOrder that also returns the priorities it sorted,
// indexed by edge identifier.
func edgeOrder(el graph.EdgeList, seed uint64) (core.Order, []uint64) {
	prio := make([]uint64, el.NumEdges())
	parallel.ForRange(len(prio), edgeOrderBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			prio[i] = EdgePriority(e.U, e.V, seed)
		}
	})
	return orderByPriority(el.Edges, prio), prio
}

// orderByPriority returns the order of edge identifiers sorted by
// (prio, raw U, raw V, identifier).
//
// EdgePriority is a uniform hash, so a bucket sort orders its values in
// a few linear passes; other priorities sort correctly too, in up to
// O(m log m). An edge's key packs its priority's leading bits above its
// identifier, which takes the low b bits, b the bit length of m−1, so
// keys are distinct. The passes are:
//
//  1. count each block's edges per bucket, the top edgeOrderTopBits
//     bits of the priority;
//  2. scan the counts into per-block bucket offsets and scatter the keys
//     into their buckets;
//  3. sort each bucket on its own: a counting pass on its next bits
//     leaves runs of about one key, which slices.Sort finishes. Keys
//     then run in (priority prefix, identifier) order, and the rare run
//     of equal prefixes is re-sorted by the full comparison. Each
//     bucket writes its order entries and ranks directly.
func orderByPriority(edges []graph.Edge, prio []uint64) core.Order {
	m := len(prio)
	ord := core.Order{Order: make([]int32, m), Rank: make([]int32, m)}
	if m == 0 {
		return ord
	}
	const buckets = 1 << edgeOrderTopBits
	const shift = 64 - edgeOrderTopBits
	idBits := uint(bits.Len(uint(m - 1)))
	idMask := uint64(1)<<idBits - 1
	counts := make([][buckets]int, (m+edgeOrderBlock-1)/edgeOrderBlock)
	parallel.ForBlocks(m, edgeOrderBlock, func(b, lo, hi int) {
		c := &counts[b]
		for _, p := range prio[lo:hi] {
			c[p>>shift]++
		}
	})
	// Bucket d occupies [starts[d], starts[d+1]), and within it each
	// block scatters to its own range.
	var starts [buckets + 1]int
	total := 0
	for d := 0; d < buckets; d++ {
		starts[d] = total
		for b := range counts {
			c := counts[b][d]
			counts[b][d] = total
			total += c
		}
	}
	starts[buckets] = total
	keys := make([]uint64, m)
	parallel.ForBlocks(m, edgeOrderBlock, func(b, lo, hi int) {
		c := &counts[b]
		for i := lo; i < hi; i++ {
			p := prio[i]
			d := p >> shift
			keys[c[d]] = p&^idMask | uint64(i)
			c[d]++
		}
	})
	parallel.ForRange(buckets, 4, func(lo, hi int) {
		var sc bucketScratch
		for d := lo; d < hi; d++ {
			base := starts[d]
			sorted := sc.sort(keys[base:starts[d+1]])
			repairPrefixRuns(sorted, idBits, edges, prio)
			for r, k := range sorted {
				id := int32(k & idMask)
				ord.Order[base+r] = id
				ord.Rank[id] = int32(base + r)
			}
		}
	})
	return ord
}

// bucketScratch is one chunk's reusable buffers for sorting buckets.
type bucketScratch struct {
	tmp []uint64
	cnt []int32
}

// sort returns the keys of one bucket, whose top edgeOrderTopBits bits
// agree, in ascending order, in the scratch buffer. A counting pass on
// the next b bits, 2^b > len(keys), leaves runs of about one key each,
// which slices.Sort finishes; a long run (only many copies of one edge
// make one) costs O(k log k), so no input costs more than O(m log m).
func (sc *bucketScratch) sort(keys []uint64) []uint64 {
	n := len(keys)
	sc.tmp = slices.Grow(sc.tmp[:0], n)[:n]
	out := sc.tmp
	b := uint(bits.Len(uint(n)))
	shift := 64 - edgeOrderTopBits - b
	mask := uint64(1)<<b - 1
	sc.cnt = slices.Grow(sc.cnt[:0], 1<<b+1)[:1<<b+1]
	cnt := sc.cnt
	clear(cnt)
	for _, k := range keys {
		cnt[(k>>shift)&mask+1]++
	}
	for d := 1; d < len(cnt); d++ {
		cnt[d] += cnt[d-1]
	}
	for _, k := range keys {
		d := (k >> shift) & mask
		out[cnt[d]] = k
		cnt[d]++
	}
	// cnt[d] is now the end of run d.
	start := int32(0)
	for _, end := range cnt[:1<<b] {
		if end-start > 1 {
			slices.Sort(out[start:end])
		}
		start = end
	}
	return out
}

// repairPrefixRuns re-sorts each run of sorted keys whose priority
// prefixes (the bits above idBits) agree by the full order: priority,
// then raw U and V, then identifier.
func repairPrefixRuns(keys []uint64, idBits uint, edges []graph.Edge, prio []uint64) {
	idMask := uint64(1)<<idBits - 1
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j]>>idBits == keys[i]>>idBits {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], func(x, y uint64) int {
				a, b := x&idMask, y&idMask
				ea, eb := edges[a], edges[b]
				switch {
				case prio[a] != prio[b]:
					return cmp.Compare(prio[a], prio[b])
				case ea.U != eb.U:
					return cmp.Compare(ea.U, eb.U)
				case ea.V != eb.V:
					return cmp.Compare(ea.V, eb.V)
				}
				return cmp.Compare(a, b)
			})
		}
		i = j
	}
}
