package matching

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// IsMatching reports whether the selected edges share no endpoints.
func IsMatching(el graph.EdgeList, inMatching []bool) bool {
	used := make([]bool, el.N)
	for e, in := range inMatching {
		if !in {
			continue
		}
		edge := el.Edges[e]
		if used[edge.U] || used[edge.V] {
			return false
		}
		used[edge.U] = true
		used[edge.V] = true
	}
	return true
}

// IsMaximalMatching reports whether inMatching is a matching and no
// unselected edge has both endpoints free.
func IsMaximalMatching(el graph.EdgeList, inMatching []bool) bool {
	if !IsMatching(el, inMatching) {
		return false
	}
	used := make([]bool, el.N)
	for e, in := range inMatching {
		if in {
			edge := el.Edges[e]
			used[edge.U] = true
			used[edge.V] = true
		}
	}
	for e, in := range inMatching {
		if in {
			continue
		}
		edge := el.Edges[e]
		if !used[edge.U] && !used[edge.V] {
			return false
		}
	}
	return true
}

// VerifyLexFirst checks that result is exactly the greedy sequential
// matching of el under ord — the determinism guarantee of the paper. It
// returns nil on success. The matching it compares against comes from
// lexFirstMM, which shares no code with the solvers.
func VerifyLexFirst(el graph.EdgeList, ord core.Order, result *Result) error {
	m := el.NumEdges()
	if ord.Len() != m || len(result.InMatching) != m {
		return fmt.Errorf("matching: order covers %d and result %d edges, edge list has %d",
			ord.Len(), len(result.InMatching), m)
	}
	want := lexFirstMM(el, ord)
	for r := 0; r < m; r++ {
		e := ord.Order[r]
		if result.InMatching[e] != want[e] {
			return fmt.Errorf("matching: edge %d (rank %d, %v): got in=%v, greedy has in=%v",
				e, r, el.Edges[e], result.InMatching[e], want[e])
		}
	}
	return nil
}

// lexFirstMM is the greedy sequential matching over the edge list in
// priority order, the reference the solvers are checked against: an
// edge is kept exactly when neither endpoint is matched yet. It returns
// the matched bit of each edge.
func lexFirstMM(el graph.EdgeList, ord core.Order) []bool {
	in := make([]bool, el.NumEdges())
	matched := make([]bool, el.N)
	for _, e := range ord.Order {
		u, v := el.Edges[e].U, el.Edges[e].V
		if !matched[u] && !matched[v] {
			in[e] = true
			matched[u], matched[v] = true, true
		}
	}
	return in
}
