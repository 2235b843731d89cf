package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// OrderSensitivity measures how the dependence length reacts to the
// priority order across graph families — the empirical face of the
// paper's central hypothesis. Random orders keep the dependence length
// polylogarithmic on every family (Theorem 3.5); structured orders
// (identity on a path, BFS, degree-sorted) can push it toward the
// longest-path bound, and on the path graph all the way to Theta(n) —
// the P-completeness of the lexicographically-first MIS under
// adversarial orders made visible.
func OrderSensitivity(n int, seed uint64) Table {
	if n < 16 {
		n = 16
	}
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"random(avg10)", graph.Random(n, 5*n, seed)},
		{"rmat", rmatFor(n, 5*n, seed)},
		{"path", graph.Path(n)},
		{"grid2d", graph.Grid2D(isqrt(n), isqrt(n))},
		{"hypercube", graph.Hypercube(log2floor(n))},
		{"ba(k=3)", graph.BarabasiAlbert(n, 3, seed)},
		{"smallworld", graph.WattsStrogatz(n, 6, 0.1, seed)},
	}
	t := Table{
		Title:   fmt.Sprintf("Order sensitivity: MIS dependence length by priority order (n~%d) [%s]", n, Env()),
		Headers: []string{"graph", "n", "random", "identity", "reverse-random", "bfs", "degree-asc", "degree-desc"},
		Notes: []string{
			"Theorem 3.5 requires a RANDOM order; structured orders void the polylog guarantee",
			"path + identity order is the classic linear-dependence worst case",
		},
	}
	for _, f := range families {
		nn := f.g.NumVertices()
		rnd := core.NewRandomOrder(nn, seed+1)
		row := []string{
			f.name,
			fmt.Sprintf("%d", nn),
			fmt.Sprintf("%d", core.DependenceSteps(f.g, rnd).Steps),
			fmt.Sprintf("%d", core.DependenceSteps(f.g, core.IdentityOrder(nn)).Steps),
			fmt.Sprintf("%d", core.DependenceSteps(f.g, core.Reverse(rnd)).Steps),
			fmt.Sprintf("%d", core.DependenceSteps(f.g, core.BFSOrder(f.g, 0)).Steps),
			fmt.Sprintf("%d", core.DependenceSteps(f.g, core.DegreeOrder(f.g, true)).Steps),
			fmt.Sprintf("%d", core.DependenceSteps(f.g, core.DegreeOrder(f.g, false)).Steps),
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func rmatFor(n, m int, seed uint64) *graph.Graph {
	logN := 0
	for 1<<logN < n {
		logN++
	}
	return graph.RMat(logN, m, seed)
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func log2floor(n int) int {
	l := 0
	for 1<<uint(l+1) <= n {
		l++
	}
	return l
}
