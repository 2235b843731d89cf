package core

import (
	"fmt"

	"repro/internal/graph"
)

// IsIndependentSet reports whether no two vertices with inSet true are
// adjacent in g.
func IsIndependentSet(g *graph.Graph, inSet []bool) bool {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if !inSet[v] {
			continue
		}
		for _, u := range g.Neighbors(int32(v)) {
			if inSet[u] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether inSet is independent and
// maximal: every vertex not in the set has a neighbor in it.
func IsMaximalIndependentSet(g *graph.Graph, inSet []bool) bool {
	if !IsIndependentSet(g, inSet) {
		return false
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if inSet[v] {
			continue
		}
		covered := false
		for _, u := range g.Neighbors(int32(v)) {
			if inSet[u] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// VerifyLexFirst checks that result is exactly the lexicographically
// first MIS of g under ord, i.e. the answer of the sequential greedy
// algorithm. It returns nil on success and a descriptive error naming
// the first disagreeing vertex otherwise. This is the determinism
// property the paper emphasizes: any schedule of the parallel algorithm
// must pass this check. The answer it compares against comes from
// lexFirstMIS, which shares no code with the solvers.
func VerifyLexFirst(g *graph.Graph, ord Order, result *Result) error {
	n := g.NumVertices()
	if ord.Len() != n || len(result.InSet) != n {
		return fmt.Errorf("core: order covers %d and result %d vertices, graph has %d", ord.Len(), len(result.InSet), n)
	}
	want := lexFirstMIS(g, ord)
	for r := 0; r < n; r++ {
		v := ord.Order[r]
		if result.InSet[v] != want[v] {
			return fmt.Errorf("core: vertex %d (rank %d): got in=%v, lexicographically-first MIS has in=%v",
				v, r, result.InSet[v], want[v])
		}
	}
	return nil
}

// lexFirstMIS is the paper's Algorithm 1 over the vertex-space CSR, the
// reference the solvers are checked against: scan vertices in priority
// order; add a vertex if it has not been removed; remove its neighbors.
// It returns the membership bit of each vertex.
func lexFirstMIS(g *graph.Graph, ord Order) []bool {
	in := make([]bool, g.NumVertices())
	removed := make([]bool, g.NumVertices())
	for _, v := range ord.Order {
		if removed[v] {
			continue
		}
		in[v] = true
		for _, u := range g.Neighbors(v) {
			removed[u] = true
		}
	}
	return in
}
