package matching

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

func instance(n, m int, seed uint64) (graph.EdgeList, core.Order) {
	g := graph.Random(n, m, seed)
	el := g.EdgeList()
	return el, core.NewRandomOrder(el.NumEdges(), seed+1)
}

func TestSequentialMMSmall(t *testing.T) {
	// Path 0-1-2-3: edges (0,1),(1,2),(2,3) in id order. Identity order
	// matches (0,1), skips (1,2), matches (2,3).
	g := graph.Path(4)
	el := g.EdgeList()
	r := must(SequentialMM(context.Background(), el, core.IdentityOrder(3), Options{}))
	if r.Size() != 2 || !r.InMatching[0] || r.InMatching[1] || !r.InMatching[2] {
		t.Errorf("path matching = %v (pairs %v)", r.InMatching, r.Pairs)
	}
	if !slices.Equal(r.Pairs, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}) {
		t.Errorf("pairs = %v", r.Pairs)
	}
	if r.Stats.Rounds != 3 || r.Stats.Attempts != 3 {
		t.Errorf("sequential stats %+v", r.Stats)
	}
}

func TestSequentialMMOrderMatters(t *testing.T) {
	// Path 0-1-2: middle-edge-first gives a 1-edge matching; the greedy
	// result depends on the order, which is the point of fixing it.
	g := graph.Path(3)
	el := g.EdgeList()
	midFirst := must(SequentialMM(context.Background(), el, core.FromOrder([]int32{1, 0}), Options{})) // wait: P3 has 2 edges
	_ = midFirst
	// P4 instead: 3 edges; process middle edge (1,2) first.
	g4 := graph.Path(4)
	el4 := g4.EdgeList()
	r := must(SequentialMM(context.Background(), el4, core.FromOrder([]int32{1, 0, 2}), Options{}))
	if r.Size() != 1 || !r.InMatching[1] {
		t.Errorf("middle-first matching = %v", r.InMatching)
	}
}

func TestSequentialMMEmpty(t *testing.T) {
	el := graph.EdgeList{N: 5}
	r := must(SequentialMM(context.Background(), el, core.IdentityOrder(0), Options{}))
	if r.Size() != 0 || len(r.InMatching) != 0 {
		t.Error("empty edge list gave nonempty matching")
	}
}

func TestSequentialMMIsMaximal(t *testing.T) {
	el, ord := instance(400, 2000, 3)
	r := must(SequentialMM(context.Background(), el, ord, Options{}))
	if !IsMaximalMatching(el, r.InMatching) {
		t.Error("sequential matching not maximal")
	}
}

// referenceMM is lexFirstMM, the greedy matching over the edge list
// that shares no code with the engine adapter, as a Result.
func referenceMM(el graph.EdgeList, ord core.Order) *Result {
	return bitsResult(el, lexFirstMM(el, ord), Stats{})
}

// gathered returns el's edges in rank order under ord, a fresh
// layout of the kind a caller passes as Options.Edges.
func gathered(el graph.EdgeList, ord core.Order) []graph.Edge {
	return el.GatherByRank(new([]graph.Edge), ord.Order)
}

// checkLayout fails t unless layout still equals a fresh gather: runs
// only read a prebuilt layout, which a Solver shares across calls.
func checkLayout(t *testing.T, el graph.EdgeList, ord core.Order, layout []graph.Edge) {
	t.Helper()
	if !slices.Equal(layout, gathered(el, ord)) {
		t.Fatal("a run wrote into the prebuilt edge layout")
	}
}

func allDeterministicMM(t *testing.T, el graph.EdgeList, ord core.Order) map[string]*Result {
	layout := gathered(el, ord)
	defer checkLayout(t, el, ord, layout)
	return map[string]*Result{
		"sequential":        must(SequentialMM(context.Background(), el, ord, Options{})),
		"sequential-layout": must(SequentialMM(context.Background(), el, ord, Options{Edges: layout})),
		"rootset-layout":    must(RootSetMM(context.Background(), el, ord, Options{Edges: layout})),
		"prefix-layout":     must(PrefixMM(context.Background(), el, ord, Options{Edges: layout})),
		"parallel-full":     must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1}})),
		"rootset":           must(RootSetMM(context.Background(), el, ord, Options{})),
		"prefix-default":    must(PrefixMM(context.Background(), el, ord, Options{})),
		"prefix-1":          must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 1}})),
		"prefix-5":          must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 5}})),
		"prefix-0.2":        must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 0.2}})),
		"tiny-grain":        must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 0.5, Grain: 2}})),
	}
}

func TestAllMMAlgorithmsMatchSequential(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		seed uint64
	}{
		{"random-sparse", graph.Random(200, 600, 1), 10},
		{"random-dense", graph.Random(80, 1500, 2), 11},
		{"rmat", graph.RMat(8, 1200, 3), 12},
		{"grid", graph.Grid2D(15, 17), 13},
		{"complete", graph.Complete(40), 14},
		{"star", graph.Star(60), 15},
		{"path", graph.Path(150), 16},
		{"cycle", graph.Cycle(149), 17},
		{"bipartite", graph.RandomBipartite(40, 50, 300, 18), 18},
	}
	for _, c := range cases {
		el := c.g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), c.seed)
		want := referenceMM(el, ord)
		for name, got := range allDeterministicMM(t, el, ord) {
			if !got.Equal(want) {
				t.Errorf("%s/%s: matching differs from sequential greedy (got %d, want %d edges)",
					c.name, name, got.Size(), want.Size())
			}
			if err := VerifyLexFirst(el, ord, got); err != nil {
				t.Errorf("%s/%s: %v", c.name, name, err)
			}
		}
	}
}

func TestMMAlgorithmsMatchQuick(t *testing.T) {
	f := func(rawN uint8, rawM uint16, seed uint64) bool {
		n := int(rawN%60) + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := graph.Random(n, m, seed)
		el := g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), seed^0xbeef)
		want := referenceMM(el, ord)
		for _, got := range []*Result{
			must(SequentialMM(context.Background(), el, ord, Options{})),
			must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1}})),
			must(RootSetMM(context.Background(), el, ord, Options{})),
			must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 4}})),
		} {
			if !got.Equal(want) {
				return false
			}
		}
		return IsMaximalMatching(el, want.InMatching)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMMMatchesLineGraphMIS(t *testing.T) {
	// Lemma 5.1's reduction: greedy MM on g equals greedy MIS on the
	// line graph with the same priorities.
	for _, g := range []*graph.Graph{
		graph.Random(60, 200, 5),
		graph.Complete(20),
		graph.Star(25),
		graph.Grid2D(8, 9),
	} {
		el := g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), 7)
		direct := referenceMM(el, ord)
		viaLG := ViaLineGraphMIS(g, ord)
		if !direct.Equal(viaLG) {
			t.Errorf("line-graph MIS disagrees with direct greedy MM on %v", g)
		}
	}
}

func TestMMDeterminismAcrossPrefixSizes(t *testing.T) {
	el, ord := instance(1000, 6000, 9)
	want := referenceMM(el, ord)
	for _, frac := range []float64{0.001, 0.01, 0.1, 1.0} {
		r := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: frac}}))
		if !r.Equal(want) {
			t.Fatalf("prefix frac %v changed the matching", frac)
		}
	}
}

func TestMMPrefix1IsSequential(t *testing.T) {
	el, ord := instance(300, 900, 4)
	r := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 1}}))
	if r.Stats.Rounds != int64(el.NumEdges()) {
		t.Errorf("prefix-1 rounds = %d, want m = %d", r.Stats.Rounds, el.NumEdges())
	}
	if r.Stats.Attempts != int64(el.NumEdges()) {
		t.Errorf("prefix-1 attempts = %d, want m = %d", r.Stats.Attempts, el.NumEdges())
	}
}

func TestMMWorkRoundsTradeoff(t *testing.T) {
	el, ord := instance(2000, 12000, 6)
	small := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 16}}))
	full := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	if small.Stats.Attempts > full.Stats.Attempts {
		t.Errorf("attempts should grow with prefix: small=%d full=%d",
			small.Stats.Attempts, full.Stats.Attempts)
	}
	if small.Stats.Rounds < full.Stats.Rounds {
		t.Errorf("rounds should shrink with prefix: small=%d full=%d",
			small.Stats.Rounds, full.Stats.Rounds)
	}
}

func TestRootSetMMStepsEqualDependenceLength(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.Random(300, 1200, 8)},
		{"rmat", graph.RMat(8, 1000, 9)},
		{"grid", graph.Grid2D(15, 15)},
		{"complete", graph.Complete(30)},
		{"star", graph.Star(50)},
	} {
		el := c.g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), 21)
		r := must(RootSetMM(context.Background(), el, ord, Options{}))
		info := DependenceSteps(el, ord)
		if int(r.Stats.Rounds) != info.Steps {
			t.Errorf("%s: rootset steps %d != analyzer dependence length %d",
				c.name, r.Stats.Rounds, info.Steps)
		}
	}
}

func TestDependenceStepsMatchesSequentialMatching(t *testing.T) {
	el, ord := instance(500, 2500, 31)
	info := DependenceSteps(el, ord)
	want := referenceMM(el, ord)
	for e := 0; e < el.NumEdges(); e++ {
		if info.InMatching[e] != want.InMatching[e] {
			t.Fatalf("analyzer and sequential disagree on edge %d", e)
		}
	}
}

func TestMMDependencePolylog(t *testing.T) {
	for _, n := range []int{1000, 4000} {
		g := graph.Random(n, 5*n, uint64(n))
		el := g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), uint64(n)+3)
		info := DependenceSteps(el, ord)
		m := el.NumEdges()
		log2m := 0
		for v := m; v > 1; v >>= 1 {
			log2m++
		}
		bound := 4 * log2m * log2m
		if info.Steps > bound {
			t.Errorf("m=%d: MM dependence length %d exceeds envelope %d", m, info.Steps, bound)
		}
	}
}

func TestMMStarDependence(t *testing.T) {
	// All star edges share the center: only the first can match and all
	// others die at step 1, so the dependence length is 1.
	g := graph.Star(40)
	el := g.EdgeList()
	info := DependenceSteps(el, core.NewRandomOrder(el.NumEdges(), 2))
	if info.Steps != 1 {
		t.Errorf("star MM dependence = %d, want 1", info.Steps)
	}
}

func TestVerifyLexFirstCatchesCorruption(t *testing.T) {
	el, ord := instance(100, 300, 12)
	r := must(SequentialMM(context.Background(), el, ord, Options{}))
	bad := &Result{InMatching: append([]bool(nil), r.InMatching...)}
	bad.InMatching[ord.Order[0]] = !bad.InMatching[ord.Order[0]]
	if err := VerifyLexFirst(el, ord, bad); err == nil {
		t.Error("corrupted matching accepted")
	}
	short := &Result{InMatching: make([]bool, 2)}
	if err := VerifyLexFirst(el, ord, short); err == nil {
		t.Error("short result accepted")
	}
}

func TestIsMatchingAndMaximal(t *testing.T) {
	g := graph.Path(5) // edges (0,1),(1,2),(2,3),(3,4)
	el := g.EdgeList()
	if !IsMatching(el, []bool{true, false, true, false}) {
		t.Error("valid matching rejected")
	}
	if IsMatching(el, []bool{true, true, false, false}) {
		t.Error("overlapping edges accepted")
	}
	if IsMaximalMatching(el, []bool{false, true, false, false}) {
		t.Error("non-maximal accepted: edge (3,4) addable")
	}
	if !IsMaximalMatching(el, []bool{true, false, true, false}) {
		t.Error("maximal matching rejected")
	}
}

func TestResultPairsMatchInMatching(t *testing.T) {
	el, ord := instance(500, 2000, 14)
	r := must(PrefixMM(context.Background(), el, ord, Options{}))
	var want []graph.Edge
	for id, in := range r.InMatching {
		if in {
			want = append(want, el.Edges[id])
		}
	}
	if !slices.Equal(r.Pairs, want) {
		t.Fatalf("pairs are not the matched edges in id order: %d pairs, %d matched edges", len(r.Pairs), len(want))
	}
	covered := make([]bool, el.N)
	for _, p := range r.Pairs {
		if covered[p.U] || covered[p.V] {
			t.Fatalf("pair %v shares an endpoint with an earlier pair", p)
		}
		covered[p.U], covered[p.V] = true, true
	}
}

func BenchmarkSequentialMM(b *testing.B) {
	el, ord := instance(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(SequentialMM(context.Background(), el, ord, Options{}))
	}
}

func BenchmarkPrefixMM(b *testing.B) {
	el, ord := instance(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 0.01}}))
	}
}

func BenchmarkRootSetMM(b *testing.B) {
	el, ord := instance(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(RootSetMM(context.Background(), el, ord, Options{}))
	}
}

// must unwraps the result of a run under a background context, whose
// only possible error, cancellation, cannot happen.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
