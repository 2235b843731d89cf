// Package graph provides the graph substrate for the reproduction of
// Blelloch, Fineman and Shun (SPAA 2012): a compact CSR (compressed
// sparse row) representation of undirected graphs, builders, the paper's
// two experimental input generators (sparse random G(n,m) and rMat) plus
// a family of structured generators for testing, text and binary I/O in
// the PBBS AdjacencyGraph format, line graphs, induced subgraphs and
// basic statistics.
//
// All graphs in this package are simple undirected graphs: no self loops
// and no parallel edges. An edge {u,v} is stored twice in the adjacency
// array, once in each direction, so the adjacency array has length 2m
// for a graph with m undirected edges.
package graph

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// Vertex identifies a vertex as an index in [0, NumVertices). The 32-bit
// representation halves the memory traffic of the hot loops, which
// matters for the memory-bound algorithms in this library; it limits
// graphs to about 2 billion vertices, far above what the experiments
// need.
type Vertex = int32

// Graph is an immutable undirected graph in CSR form. Use FromEdges or a
// generator to construct one; the zero value is the empty graph.
type Graph struct {
	offsets []int64  // len n+1; offsets[v]..offsets[v+1] delimit v's neighbors
	adj     []Vertex // len 2m; neighbor lists, each sorted ascending
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int {
	return len(g.adj) / 2
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor list of v, sorted ascending. The
// returned slice aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} is present, by
// binary search over the smaller adjacency list.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// MaxDegree returns the maximum vertex degree Δ, or 0 for the empty
// graph. This is the a-priori Δ of the paper's Corollary 3.2.
func (g *Graph) MaxDegree() int {
	n := g.NumVertices()
	return int(parallel.MaxInt64(n, 4096, 0, func(i int) int64 {
		return int64(g.Degree(Vertex(i)))
	}))
}

// Edges returns the canonical edge list of g: every undirected edge
// exactly once as {U, V} with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	n := g.NumVertices()
	counts := make([]int64, n+1)
	parallel.For(n, 2048, func(i int) {
		v := Vertex(i)
		c := int64(0)
		for _, u := range g.Neighbors(v) {
			if u > v {
				c++
			}
		}
		counts[i] = c
	})
	total := parallel.ExclusiveScan(counts, counts[:n], 2048)
	counts[n] = total
	edges := make([]Edge, total)
	parallel.For(n, 2048, func(i int) {
		v := Vertex(i)
		pos := counts[i]
		for _, u := range g.Neighbors(v) {
			if u > v {
				edges[pos] = Edge{U: v, V: u}
				pos++
			}
		}
	})
	return edges
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d maxdeg=%d}", g.NumVertices(), g.NumEdges(), g.MaxDegree())
}

// Validate checks the structural invariants of the CSR representation:
// monotone offsets covering the adjacency array, in-range sorted
// neighbor lists, no self loops, no duplicate edges, and symmetry
// (u lists v if and only if v lists u). It returns nil if all hold.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n == 0 {
		if len(g.adj) != 0 {
			return errors.New("graph: empty offsets with nonempty adjacency")
		}
		return nil
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.adj))
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		nbrs := g.Neighbors(Vertex(v))
		for i, u := range nbrs {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: vertex %d has a self loop", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted at position %d", v, i)
			}
		}
	}
	// Symmetry: every directed arc must have its reverse.
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(Vertex(v)) {
			if !g.hasArc(u, Vertex(v)) {
				return fmt.Errorf("graph: edge %d->%d present but %d->%d missing", v, u, u, v)
			}
		}
	}
	return nil
}

func (g *Graph) hasArc(u, v Vertex) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Raw exposes the CSR arrays (offsets of length n+1 and the adjacency
// array of length 2m) for algorithms that need direct indexed access.
// The returned slices alias the graph and must not be modified.
func (g *Graph) Raw() (offsets []int64, adj []Vertex) {
	return g.offsets, g.adj
}
