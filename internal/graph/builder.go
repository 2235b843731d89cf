package graph

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// Edge is an undirected edge between vertices U and V. The canonical
// form has U < V; builders accept either orientation.
type Edge struct {
	U, V Vertex
}

// Canonical returns the edge with endpoints ordered U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not
// an endpoint.
func (e Edge) Other(v Vertex) Vertex {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// FromEdges builds a simple undirected graph on n vertices from an edge
// list. Self loops are dropped and duplicate edges (in either
// orientation) are merged. Endpoints must lie in [0, n).
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	keys := make([]uint64, 0, len(edges))
	for i, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge %d = %v out of range [0,%d)", i, e, n)
		}
		if e.U == e.V {
			continue // drop self loop
		}
		e = e.Canonical()
		keys = append(keys, uint64(e.U)*uint64(n)+uint64(e.V))
	}
	return graphFromKeys(n, dedupSortedKeys(keys)), nil
}

// MustFromEdges is FromEdges but panics on error; convenient in tests
// and generators where inputs are known valid.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortAdjacency sorts every neighbor list ascending, in parallel over
// vertices.
func (g *Graph) sortAdjacency() {
	n := g.NumVertices()
	parallel.For(n, 512, func(i int) {
		slices.Sort(g.adj[g.offsets[i]:g.offsets[i+1]])
	})
}

// FromCSRUnchecked wraps CSR arrays in a Graph without copying, sorting
// or validation. The caller must guarantee the Graph invariants hold
// (offsets of length n+1 covering adj, strictly sorted in-range
// neighbor lists, no self loops, symmetry) and must not retain the
// slices. It exists for trusted builders that already produce canonical
// CSR — the dynamic overlay's compaction emits merged sorted adjacency
// directly, and re-validating symmetry there would turn an O(n + m)
// compaction into an O(m log m) one.
func FromCSRUnchecked(offsets []int64, adj []Vertex) *Graph {
	return &Graph{offsets: offsets, adj: adj}
}

// Empty returns the graph with n vertices and no edges.
func Empty(n int) *Graph {
	return &Graph{offsets: make([]int64, n+1)}
}
