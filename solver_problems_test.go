package greedy_test

import (
	"context"
	"errors"
	"testing"

	greedy "repro"
	"repro/internal/coloring"
)

// TestSolverReuseAcrossProblems cycles ONE pooled Solver through all
// five problems, twice, comparing every run against a fresh solver:
// the pooled buffers (engine window/outcome plus each problem's state
// arrays) must carry no state across problem kinds.
func TestSolverReuseAcrossProblems(t *testing.T) {
	g := greedy.RandomGraph(8_000, 40_000, 23)
	el := g.EdgeList()
	sys := greedy.HittingSystemFromEdges(el)
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(4))
	fresh := func() *greedy.Solver { return greedy.NewSolver(greedy.WithSeed(4)) }

	for cycle := 0; cycle < 2; cycle++ {
		mis, err := s.MIS(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		wantMIS, err := fresh().MIS(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if !mis.Equal(wantMIS) || mis.Stats != wantMIS.Stats {
			t.Fatalf("cycle %d: MIS on shared solver diverged", cycle)
		}

		col, err := s.Coloring(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		wantCol, err := fresh().Coloring(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if !col.Equal(wantCol) || col.Stats != wantCol.Stats {
			t.Fatalf("cycle %d: coloring on shared solver diverged", cycle)
		}
		if err := coloring.Verify(g, col.Colors); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}

		mm, err := s.MM(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		wantMM, err := fresh().MM(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		if !mm.Equal(wantMM) || mm.Stats != wantMM.Stats {
			t.Fatalf("cycle %d: MM on shared solver diverged", cycle)
		}

		hs, err := s.HittingSet(ctx, sys)
		if err != nil {
			t.Fatal(err)
		}
		wantHS, err := fresh().HittingSet(ctx, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !hs.Equal(wantHS) || hs.Stats != wantHS.Stats {
			t.Fatalf("cycle %d: hitting set on shared solver diverged", cycle)
		}
		if err := sys.Verify(hs.InSet); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}

		sf, err := s.SF(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		wantSF, err := fresh().SF(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		if !sf.Equal(wantSF) || sf.Stats != wantSF.Stats {
			t.Fatalf("cycle %d: SF on shared solver diverged", cycle)
		}
	}
}

// TestSolverCrossProblemAllocsFlat pins the pooling contract across
// problem kinds: after one warmup cycle through all five problems, a
// further cycle allocates strictly less than fresh solvers do, and
// repeated warm cycles stay flat (the buffers have reached their
// steady-state sizes — no problem regrows another problem's arrays).
func TestSolverCrossProblemAllocsFlat(t *testing.T) {
	g := greedy.RandomGraph(20_000, 100_000, 29)
	el := g.EdgeList()
	sys := greedy.HittingSystemFromEdges(el)
	ctx := context.Background()

	cycle := func(s *greedy.Solver) {
		if _, err := s.MIS(ctx, g); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Coloring(ctx, g); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MM(ctx, el); err != nil {
			t.Fatal(err)
		}
		if _, err := s.HittingSet(ctx, sys); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SF(ctx, el); err != nil {
			t.Fatal(err)
		}
	}

	freshAllocs := testing.AllocsPerRun(3, func() { cycle(greedy.NewSolver()) })

	s := greedy.NewSolver()
	cycle(s) // warmup sizes every pooled buffer
	warm1 := testing.AllocsPerRun(3, func() { cycle(s) })
	warm2 := testing.AllocsPerRun(3, func() { cycle(s) })

	if !(warm1 < freshAllocs) {
		t.Errorf("warm cross-problem cycle allocates %.0f, fresh %.0f; want strictly less", warm1, freshAllocs)
	}
	// Flat: later cycles must not keep growing buffers. A small slack
	// absorbs scheduler-dependent goroutine allocations in the parallel
	// runtime.
	if warm2 > warm1+8 {
		t.Errorf("warm cycle allocations grew: %.0f then %.0f", warm1, warm2)
	}
	t.Logf("cross-problem allocs/cycle: fresh=%.0f warm1=%.0f warm2=%.0f", freshAllocs, warm1, warm2)
}

// The new facades report configuration errors through sentinels, like
// the existing problems.
func TestColoringAndHittingSetErrors(t *testing.T) {
	g := greedy.RandomGraph(200, 800, 1)
	sys := greedy.HittingSystemFromEdges(g.EdgeList())
	ctx := context.Background()
	s := greedy.NewSolver()

	if _, err := s.Coloring(ctx, g, greedy.WithAlgorithm(greedy.AlgoRootSet)); !errors.Is(err, greedy.ErrColoringAlgorithm) {
		t.Errorf("coloring/rootset returned %v, want ErrColoringAlgorithm", err)
	}
	if _, err := s.Coloring(ctx, g, greedy.WithDynamic()); !errors.Is(err, greedy.ErrDynamicUnsupported) {
		t.Errorf("dynamic coloring returned %v, want ErrDynamicUnsupported", err)
	}
	if _, err := s.HittingSet(ctx, sys, greedy.WithAlgorithm(greedy.AlgoLuby)); !errors.Is(err, greedy.ErrHittingSetAlgorithm) {
		t.Errorf("hittingset/luby returned %v, want ErrHittingSetAlgorithm", err)
	}
	if _, err := s.HittingSet(ctx, sys, greedy.WithDynamic()); !errors.Is(err, greedy.ErrDynamicUnsupported) {
		t.Errorf("dynamic hitting set returned %v, want ErrDynamicUnsupported", err)
	}
	bad := greedy.NewRandomOrder(7, 1)
	if _, err := s.Coloring(ctx, g, greedy.WithOrder(bad)); !errors.Is(err, greedy.ErrOrderSize) {
		t.Errorf("mismatched coloring order returned %v, want ErrOrderSize", err)
	}
	if _, err := s.HittingSet(ctx, sys, greedy.WithOrder(bad)); !errors.Is(err, greedy.ErrOrderSize) {
		t.Errorf("mismatched hitting set order returned %v, want ErrOrderSize", err)
	}
}

// WeightedOrder realizes weighted greedy on any problem: the highest
// weight gets rank 0, ties break pseudo-randomly by seed, and running
// a prefix algorithm under it reproduces its own sequential scan.
func TestWeightedOrderGreedy(t *testing.T) {
	g := greedy.RandomGraph(2_000, 8_000, 31)
	n := g.NumVertices()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(i % 17)
	}
	ord := greedy.WeightedOrder(weights, 99)

	// Highest-weight vertices come first; within a weight class the seed
	// decides, so a different seed permutes the class internally.
	prev := weights[ord.Order[0]]
	for _, v := range ord.Order[1:] {
		if weights[v] > prev {
			t.Fatalf("weighted order not descending: %g after %g", weights[v], prev)
		}
		prev = weights[v]
	}
	other := greedy.WeightedOrder(weights, 100)
	same := true
	for r := range ord.Order {
		if ord.Order[r] != other.Order[r] {
			same = false
			break
		}
	}
	if same {
		t.Error("tiebreak seed had no effect on equal-weight ranks")
	}

	ctx := context.Background()
	s := greedy.NewSolver()
	seq, err := s.MIS(ctx, g, greedy.WithOrder(ord), greedy.WithAlgorithm(greedy.AlgoSequential))
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.MIS(ctx, g, greedy.WithOrder(ord))
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(seq) {
		t.Error("prefix MIS under a weighted order differs from its sequential scan")
	}
	colSeq, err := s.Coloring(ctx, g, greedy.WithOrder(ord), greedy.WithAlgorithm(greedy.AlgoSequential))
	if err != nil {
		t.Fatal(err)
	}
	colPar, err := s.Coloring(ctx, g, greedy.WithOrder(ord))
	if err != nil {
		t.Fatal(err)
	}
	if !colPar.Equal(colSeq) {
		t.Error("prefix coloring under a weighted order differs from its sequential scan")
	}
}
