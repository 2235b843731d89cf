package matching

import (
	"context"
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
// returns nil on success.
func VerifyLexFirst(el graph.EdgeList, ord core.Order, result *Result) error {
	want, err := SequentialMM(context.Background(), el, ord, Options{})
	if err != nil {
		return err
	}
	if len(result.InMatching) != el.NumEdges() {
		return fmt.Errorf("matching: result covers %d edges, edge list has %d",
			len(result.InMatching), el.NumEdges())
	}
	for r := 0; r < el.NumEdges(); r++ {
		e := ord.Order[r]
		if result.InMatching[e] != want.InMatching[e] {
			return fmt.Errorf("matching: edge %d (rank %d, %v): got in=%v, greedy has in=%v",
				e, r, el.Edges[e], result.InMatching[e], want.InMatching[e])
		}
	}
	return nil
}
