package graph

import "repro/internal/parallel"

// BuildIncidenceByPriority builds the vertex-to-incident-edge CSR with
// every per-vertex list already in increasing priority-rank order, in
// O(n + m) work — the bucket-sort construction the paper invokes for
// Lemma 5.3 ("the initial sort to order the edges incident on each
// vertex can be done in O(m) work ... using bucket sorting"): edges are
// distributed to their endpoints' buckets in a single sweep over the
// priority order, so each bucket ends up sorted without any comparison
// sort.
//
// order is the edge priority permutation (order[r] = edge id with rank
// r). The result is identical to BuildIncidence followed by a sort of
// each list by rank, which the tests keep as its reference.
func BuildIncidenceByPriority(el EdgeList, order []int32) Incidence {
	n := el.N
	counts := make([]int64, n+1)
	for _, e := range el.Edges {
		counts[e.U]++
		counts[e.V]++
	}
	offsets := make([]int64, n+1)
	total := parallel.ExclusiveScan(offsets[:n], counts[:n], 4096)
	offsets[n] = total
	ids := make([]EdgeID, total)
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	// The single priority-ordered sweep: appending to each endpoint's
	// bucket in rank order leaves every bucket sorted by rank.
	for _, e := range order {
		edge := el.Edges[e]
		ids[cursor[edge.U]] = e
		cursor[edge.U]++
		ids[cursor[edge.V]] = e
		cursor[edge.V]++
	}
	return Incidence{Offsets: offsets, EdgeIDs: ids}
}
