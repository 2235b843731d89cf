package greedy_test

import (
	"context"
	"runtime"
	"testing"

	greedy "repro"
	"repro/internal/core"
	"repro/internal/matching"
)

func TestFacadeMISDefault(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(2000, 10000, 3)
	res := must(greedy.NewSolver().MIS(ctx, g, greedy.WithSeed(7)))
	if !core.IsMaximalIndependentSet(g, res.InSet) {
		t.Fatal("facade MIS not maximal independent")
	}
	ord := greedy.NewRandomOrder(g.NumVertices(), 7)
	if err := greedy.VerifyLexFirstMIS(g, ord, res); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMISAlgorithmsAgree(t *testing.T) {
	ctx := context.Background()
	g := greedy.RMatGraph(10, 4000, 5)
	s := greedy.NewSolver(greedy.WithSeed(2))
	want := must(s.MIS(ctx, g, greedy.WithAlgorithm(greedy.AlgoSequential)))
	for _, algo := range []greedy.Algorithm{
		greedy.AlgoPrefix, greedy.AlgoRootSet, greedy.AlgoParallel,
	} {
		got := must(s.MIS(ctx, g, greedy.WithAlgorithm(algo)))
		if !got.Equal(want) {
			t.Errorf("algorithm %d disagrees with sequential", algo)
		}
	}
	luby := must(s.MIS(ctx, g, greedy.WithAlgorithm(greedy.AlgoLuby)))
	if !core.IsMaximalIndependentSet(g, luby.InSet) {
		t.Error("Luby result not a maximal independent set")
	}
}

func TestFacadeMISOptions(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(1000, 5000, 1)
	s := greedy.NewSolver(greedy.WithSeed(4))
	a := must(s.MIS(ctx, g, greedy.WithPrefixSize(17)))
	b := must(s.MIS(ctx, g, greedy.WithPrefixFrac(0.5), greedy.WithGrain(8)))
	c := must(s.MIS(ctx, g, greedy.WithPointer()))
	if !a.Equal(b) || !a.Equal(c) {
		t.Error("prefix size/frac/pointer options changed the result")
	}
	if a.Stats.PrefixSize != 17 {
		t.Errorf("WithPrefixSize not honored: %d", a.Stats.PrefixSize)
	}
}

func TestFacadeExplicitOrder(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(500, 2000, 9)
	ord := greedy.NewRandomOrder(g.NumVertices(), 11)
	a := must(greedy.NewSolver().MIS(ctx, g, greedy.WithOrder(ord)))
	b := must(greedy.NewSolver().MIS(ctx, g, greedy.WithSeed(11)))
	if !a.Equal(b) {
		t.Error("WithOrder(NewRandomOrder(seed)) differs from WithSeed(seed)")
	}
}

func TestFacadeMM(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(2000, 8000, 6)
	s := greedy.NewSolver(greedy.WithSeed(3))
	el := g.EdgeList()
	res := must(s.MM(ctx, el))
	if !matching.IsMaximalMatching(el, res.InMatching) {
		t.Fatal("facade MM not maximal")
	}
	ord := greedy.NewRandomOrder(el.NumEdges(), 3)
	if err := greedy.VerifyLexFirstMM(el, ord, res); err != nil {
		t.Fatal(err)
	}
	seq := must(s.MM(ctx, el, greedy.WithAlgorithm(greedy.AlgoSequential)))
	root := must(s.MM(ctx, el, greedy.WithAlgorithm(greedy.AlgoRootSet)))
	if !res.Equal(seq) || !res.Equal(root) {
		t.Error("facade MM algorithms disagree")
	}
}

func TestFacadeSpanningForest(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(3000, 9000, 8)
	s := greedy.NewSolver(greedy.WithSeed(2))
	el := g.EdgeList()
	seq := must(s.SF(ctx, el, greedy.WithAlgorithm(greedy.AlgoSequential)))
	par := must(s.SF(ctx, el, greedy.WithPrefixFrac(0.05)))
	// The default parallel forest uses relaxed (PBBS) semantics: a valid
	// forest of the same size, deterministic per prefix, but not
	// necessarily the sequential edge set.
	if par.Size() != seq.Size() {
		t.Errorf("forest sizes differ: %d vs %d", par.Size(), seq.Size())
	}
	again := must(s.SF(ctx, el, greedy.WithPrefixFrac(0.05)))
	if !par.Equal(again) {
		t.Error("parallel spanning forest not deterministic across runs")
	}
	if seq.Size() == 0 {
		t.Error("empty spanning forest on a connected-ish graph")
	}
}

func TestFacadeDeterministicAcrossThreadCounts(t *testing.T) {
	ctx := context.Background()
	// The paper's headline property: same order => same answer at any
	// parallelism level.
	g := greedy.RandomGraph(5000, 30000, 13)
	s := greedy.NewSolver(greedy.WithSeed(5))
	var results []*greedy.MISResult
	var mmResults []*greedy.MMResult
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		results = append(results, must(s.MIS(ctx, g)))
		mmResults = append(mmResults, must(s.MM(ctx, g.EdgeList())))
		runtime.GOMAXPROCS(old)
	}
	for i := 1; i < len(results); i++ {
		if !results[0].Equal(results[i]) {
			t.Fatal("MIS result depends on GOMAXPROCS")
		}
		if !mmResults[0].Equal(mmResults[i]) {
			t.Fatal("MM result depends on GOMAXPROCS")
		}
	}
}

func TestFacadeDependenceLength(t *testing.T) {
	g := greedy.RandomGraph(10000, 50000, 21)
	d := greedy.DependenceLength(g, greedy.NewRandomOrder(g.NumVertices(), 22))
	if d < 1 || d > 400 {
		t.Errorf("dependence length = %d, outside plausible polylog range", d)
	}
}

func TestFacadeNewGraph(t *testing.T) {
	g, err := greedy.NewGraph(3, []greedy.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("m = %d", g.NumEdges())
	}
	if _, err := greedy.NewGraph(2, []greedy.Edge{{U: 0, V: 9}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}
