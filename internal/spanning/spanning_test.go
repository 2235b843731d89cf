package spanning

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

func instance(n, m int, seed uint64) (graph.EdgeList, core.Order) {
	g := graph.Random(n, m, seed)
	el := g.EdgeList()
	return el, core.NewRandomOrder(el.NumEdges(), seed+1)
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

// referenceSF is the greedy spanning forest over the edge list in
// priority order with the sequential union-find (unionfind.DSU), the
// reference that shares no code with the engine adapter: an edge is
// kept exactly when it joins two components.
func referenceSF(el graph.EdgeList, ord core.Order) *Result {
	dsu := unionfind.NewDSU(el.N)
	in := make([]bool, el.NumEdges())
	for _, e := range ord.Order {
		in[e] = dsu.Union(el.Edges[e].U, el.Edges[e].V)
	}
	return newResult(el, in, Stats{})
}

func TestSequentialSFTree(t *testing.T) {
	// A tree: every edge is a forest edge regardless of order.
	g := graph.RandomTree(100, 3)
	el := g.EdgeList()
	r := must(SequentialSF(context.Background(), el, core.NewRandomOrder(el.NumEdges(), 4), Options{}))
	if r.Size() != 99 {
		t.Errorf("tree forest size = %d, want 99", r.Size())
	}
}

func TestSequentialSFCycleDropsOneEdge(t *testing.T) {
	g := graph.Cycle(10)
	el := g.EdgeList()
	ord := core.NewRandomOrder(el.NumEdges(), 5)
	r := must(SequentialSF(context.Background(), el, ord, Options{}))
	if r.Size() != 9 {
		t.Errorf("cycle forest size = %d, want 9", r.Size())
	}
	// The dropped edge must be the last one in priority order.
	last := ord.Order[el.NumEdges()-1]
	if r.InForest[last] {
		t.Error("the lowest-priority cycle edge should be the one dropped")
	}
}

func TestSequentialSFConnectedGraphSize(t *testing.T) {
	el, ord := instance(500, 3000, 7) // dense enough to be connected whp
	r := must(SequentialSF(context.Background(), el, ord, Options{}))
	if !IsForest(el, r.InForest) {
		t.Error("result has a cycle")
	}
	if !IsSpanning(el, r.InForest) {
		t.Error("result does not span")
	}
	st := graph.Stats(graph.MustFromEdges(el.N, el.Edges))
	wantEdges := el.N - st.ConnectedComps
	if r.Size() != wantEdges {
		t.Errorf("forest size = %d, want n - components = %d", r.Size(), wantEdges)
	}
}

func TestPrefixSFMatchesSequential(t *testing.T) {
	cases := []*graph.Graph{
		graph.Random(300, 1000, 1),
		graph.RMat(8, 800, 2),
		graph.Complete(40),
		graph.Grid2D(12, 13),
		graph.Cycle(50),
		graph.Star(60),
	}
	for ci, g := range cases {
		el := g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), uint64(ci)+11)
		want := referenceSF(el, ord)
		if got := must(SequentialSF(context.Background(), el, ord, Options{})); !got.Equal(want) {
			t.Errorf("case %d: sequential forest differs from the reference", ci)
		}
		for _, frac := range []float64{0.001, 0.01, 0.2, 1.0} {
			got := must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: frac}}))
			if !got.Equal(want) {
				t.Errorf("case %d frac %v: prefix spanning forest differs from sequential (%d vs %d edges)",
					ci, frac, got.Size(), want.Size())
			}
		}
		one := must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 1}}))
		if !one.Equal(want) {
			t.Errorf("case %d: prefix-1 differs from sequential", ci)
		}
	}
}

func TestPrefixSFQuick(t *testing.T) {
	f := func(rawN uint8, rawM uint16, seed uint64, rawPrefix uint8) bool {
		n := int(rawN%60) + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := graph.Random(n, m, seed)
		el := g.EdgeList()
		if el.NumEdges() == 0 {
			return true
		}
		ord := core.NewRandomOrder(el.NumEdges(), seed^0xabcd)
		want := referenceSF(el, ord)
		prefix := int(rawPrefix)%el.NumEdges() + 1
		got := must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: 4}}))
		seq := must(SequentialSF(context.Background(), el, ord, Options{}))
		return got.Equal(want) && seq.Equal(want) && IsForest(el, got.InForest) && IsSpanning(el, got.InForest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPrefixSFStats(t *testing.T) {
	el, ord := instance(400, 2000, 9)
	seq := must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 1}}))
	if seq.Stats.Rounds != int64(el.NumEdges()) {
		t.Errorf("prefix-1 rounds = %d, want m", seq.Stats.Rounds)
	}
	full := must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	if full.Stats.Rounds >= seq.Stats.Rounds {
		t.Errorf("full prefix rounds = %d not smaller than sequential %d",
			full.Stats.Rounds, seq.Stats.Rounds)
	}
	if full.Stats.Attempts < int64(el.NumEdges()) {
		t.Errorf("attempts %d below m", full.Stats.Attempts)
	}
}

func TestIsForestAndIsSpanning(t *testing.T) {
	g := graph.Cycle(4)
	el := g.EdgeList()
	all := []bool{true, true, true, true}
	if IsForest(el, all) {
		t.Error("full cycle accepted as forest")
	}
	three := []bool{true, true, true, false}
	if !IsForest(el, three) || !IsSpanning(el, three) {
		t.Error("spanning path of cycle rejected")
	}
	two := []bool{true, true, false, false}
	if IsSpanning(el, two) {
		t.Error("disconnected subset accepted as spanning")
	}
}

func BenchmarkPrefixSF(b *testing.B) {
	// The exact protocol serializes on the giant component (see
	// relaxed.go), so it is benchmarked at a reduced size with a small
	// prefix; PrefixSFRelaxed covers the full-scale case.
	el, ord := instance(10000, 50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 0.001}}))
	}
}

func BenchmarkSequentialSF(b *testing.B) {
	el, ord := instance(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(SequentialSF(context.Background(), el, ord, Options{}))
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
