package spanning

import (
	"context"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

func TestRelaxedProducesValidSpanningForest(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Random(400, 1600, 1),
		graph.RMat(9, 1500, 2),
		graph.Complete(40),
		graph.Star(50),
		graph.Cycle(60),
		graph.Grid2D(12, 13),
	} {
		el := g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), 7)
		want := referenceSF(el, ord)
		for _, frac := range []float64{0.01, 0.2, 1.0} {
			got := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: frac}}))
			if !IsForest(el, got.InForest) {
				t.Fatalf("frac %v: relaxed result has a cycle", frac)
			}
			if !IsSpanning(el, got.InForest) {
				t.Fatalf("frac %v: relaxed result does not span", frac)
			}
			// Any two spanning forests of the same graph have the same
			// size (n - #components), even when the edge sets differ.
			if got.Size() != want.Size() {
				t.Fatalf("frac %v: relaxed forest size %d != %d", frac, got.Size(), want.Size())
			}
		}
	}
}

func TestRelaxedDeterministicForFixedPrefix(t *testing.T) {
	el, ord := instance(800, 4000, 3)
	first := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 128}}))
	for trial := 0; trial < 4; trial++ {
		again := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 128}}))
		if !again.Equal(first) {
			t.Fatalf("trial %d: relaxed forest changed across identical runs", trial)
		}
	}
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		r := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 128}}))
		runtime.GOMAXPROCS(old)
		if !r.Equal(first) {
			t.Fatalf("procs %d: relaxed forest depends on thread count", procs)
		}
	}
}

func TestRelaxedPrefixOneIsSequential(t *testing.T) {
	// With window size 1 the relaxed protocol degenerates to the
	// sequential loop: one edge at a time, always the earliest, so the
	// result is the lexicographically-first forest.
	el, ord := instance(300, 1200, 5)
	want := referenceSF(el, ord)
	got := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: 1}}))
	if !got.Equal(want) {
		t.Error("relaxed with prefix 1 differs from sequential")
	}
}

func TestRelaxedQuick(t *testing.T) {
	f := func(rawN uint8, rawM uint16, seed uint64, rawPrefix uint8) bool {
		n := int(rawN%60) + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := graph.Random(n, m, seed)
		el := g.EdgeList()
		if el.NumEdges() == 0 {
			return true
		}
		ord := core.NewRandomOrder(el.NumEdges(), seed^0x5555)
		prefix := int(rawPrefix)%el.NumEdges() + 1
		got := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: 4}}))
		return IsForest(el, got.InForest) && IsSpanning(el, got.InForest) &&
			got.Size() == referenceSF(el, ord).Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExactVsRelaxedHubContention(t *testing.T) {
	// The finding that answers the paper's §7 conjecture for spanning
	// forests: on a star (one hub), the exact sequential-equivalent
	// protocol serializes — every attachment must win the hub's
	// reservation, so rounds ~ n — while the relaxed protocol finishes
	// in O(1) rounds because the hub's root is never contended (links
	// write the leaf-side roots... more precisely the larger root).
	n := 2000
	g := graph.Star(n)
	el := g.EdgeList()
	ord := core.NewRandomOrder(el.NumEdges(), 9)

	exact := must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	relaxed := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	if exact.Stats.Rounds < int64(n)/2 {
		t.Errorf("exact rounds = %d; expected near-linear serialization on the star", exact.Stats.Rounds)
	}
	if relaxed.Stats.Rounds > 10 {
		t.Errorf("relaxed rounds = %d; expected O(1) on the star", relaxed.Stats.Rounds)
	}
	// Both must still be valid spanning forests of the star (all edges).
	if exact.Size() != n-1 || relaxed.Size() != n-1 {
		t.Errorf("star forests sizes %d, %d; want %d", exact.Size(), relaxed.Size(), n-1)
	}
}

func BenchmarkPrefixSFRelaxed(b *testing.B) {
	el, ord := instance(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 0.01}}))
	}
}
