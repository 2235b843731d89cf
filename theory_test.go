package greedy_test

import (
	"context"
	"math"
	"math/bits"
	"testing"

	greedy "repro"
)

// TestTheoryLimits checks the sequential greedy answers on G(n, cn/2)
// under a uniformly random order against their limit laws, an oracle
// that does not share code with the implementations it judges: a biased
// generator or permutation passes every equivalence test but moves
// these. Greedy MIS density tends to ln(1+c)/c (Krivelevich & Mészáros,
// arXiv:1907.07216), random greedy matching has c/(2(c+1)) edges per
// vertex (Dyer, Frieze & Pittel 1993), and parallel greedy MIS needs
// Θ(log n) rounds (Fischer & Noever, arXiv:1707.05124), so the
// dependence length stays below log₂ n. At n = 2^17, seeds 1 to 8
// stayed within 0.0015 of both limits, with dependence lengths 4 to 7.
func TestTheoryLimits(t *testing.T) {
	const n = 1 << 17
	s := greedy.NewSolver(greedy.WithAlgorithm(greedy.AlgoSequential))
	for _, c := range []float64{2, 10} {
		g := greedy.RandomGraph(n, int(c*n/2), 1)
		ord := greedy.NewRandomOrder(n, 2)
		mis := must(s.MIS(context.Background(), g, greedy.WithOrder(ord)))
		mm := must(s.MM(context.Background(), g.EdgeList(), greedy.WithSeed(3)))
		density, matched := float64(mis.Size())/n, float64(mm.Size())/n
		if want := math.Log1p(c) / c; math.Abs(density-want) > 0.005 {
			t.Errorf("c=%g: MIS density %.4f, limit %.4f", c, density, want)
		}
		if want := c / (2 * (c + 1)); math.Abs(matched-want) > 0.005 {
			t.Errorf("c=%g: matched edges per vertex %.4f, limit %.4f", c, matched, want)
		}
		steps := greedy.DependenceLength(g, ord)
		if bound := bits.Len(n) - 1; steps > bound {
			t.Errorf("c=%g: dependence length %d above log2 n = %d", c, steps, bound)
		}
		t.Logf("c=%g: MIS density %.4f, matched/n %.4f, dependence length %d", c, density, matched, steps)
	}
}
