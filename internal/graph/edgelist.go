package graph

import (
	"fmt"

	"repro/internal/parallel"
)

// EdgeID identifies an edge as an index into an EdgeList.
type EdgeID = int32

// EdgeList is the edge-array view of a graph used by the maximal
// matching algorithms, which iterate over edges rather than vertices.
// Edges[i] is the edge with identifier i; the maximal matching
// algorithms impose a random priority order on these identifiers.
type EdgeList struct {
	N     int    // number of vertices
	Edges []Edge // canonical undirected edges, each exactly once
}

// NumEdges returns the number of edges m.
func (el EdgeList) NumEdges() int { return len(el.Edges) }

// EdgeList returns the edge-array view of g. Edge identifiers are
// assigned in the canonical (sorted U<V) order produced by
// (*Graph).Edges, so they are deterministic for a given graph.
func (g *Graph) EdgeList() EdgeList {
	return EdgeList{N: g.NumVertices(), Edges: g.Edges()}
}

// GatherByRank lays el's edges out in priority order, edge order[r] at
// index r, in one parallel pass over *buf (grown when its capacity is
// short), and returns the laid-out slice. It is the rank-space input of
// the prefix-based edge problems, whose iterates are ranks.
func (el EdgeList) GatherByRank(buf *[]Edge, order []int32) []Edge {
	m := len(el.Edges)
	out := *buf
	if cap(out) < m {
		out = make([]Edge, m)
	}
	out = out[:m]
	*buf = out
	edges := el.Edges
	parallel.ForRange(m, 4096, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			out[r] = edges[order[r]]
		}
	})
	return out
}

// Validate checks that all endpoints are in range and no edge is a self
// loop.
func (el EdgeList) Validate() error {
	for i, e := range el.Edges {
		if e.U < 0 || int(e.U) >= el.N || e.V < 0 || int(e.V) >= el.N {
			return fmt.Errorf("graph: edge %d = %v out of range [0,%d)", i, e, el.N)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self loop at %d", i, e.U)
		}
	}
	return nil
}

// Incidence is a CSR mapping from each vertex to the identifiers of its
// incident edges. It is the structure behind the paper's linear-work
// maximal matching (Lemma 5.3), which keeps "for each vertex an array of
// its incident edges sorted by priority".
type Incidence struct {
	Offsets []int64  // len n+1
	EdgeIDs []EdgeID // len 2m; edge ids incident to each vertex
}

// Incident returns the edge identifiers incident to v. The slice aliases
// the structure's storage.
func (inc Incidence) Incident(v Vertex) []EdgeID {
	return inc.EdgeIDs[inc.Offsets[v]:inc.Offsets[v+1]]
}

// BuildIncidence builds the vertex-to-incident-edge CSR for el. Within
// each vertex, edge ids appear in increasing id order, so on edges laid
// out in rank order (GatherByRank) each list is in priority order, as
// the linear-work matching needs.
func BuildIncidence(el EdgeList) Incidence {
	n := el.N
	offsets := make([]int64, n+1)
	for _, e := range el.Edges {
		offsets[e.U]++
		offsets[e.V]++
	}
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 4096)
	offsets[n] = total
	ids := make([]EdgeID, total)
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for i, e := range el.Edges {
		ids[cursor[e.U]] = EdgeID(i)
		cursor[e.U]++
		ids[cursor[e.V]] = EdgeID(i)
		cursor[e.V]++
	}
	return Incidence{Offsets: offsets, EdgeIDs: ids}
}
