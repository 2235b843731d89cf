package spanning

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// TestAdaptiveStrictSFMatchesSequential: the strict (both-roots)
// prefix algorithm returns exactly the sequential forest under any
// window schedule, including an adaptive one.
func TestAdaptiveStrictSFMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random": graph.Random(1200, 6000, 7),
		"grid":   graph.Grid2D(40, 40),
		"tree":   graph.RandomTree(800, 9),
		"cycle":  graph.Cycle(1000),
	}
	for name, g := range graphs {
		el := g.EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), 3)
		want := referenceSF(el, ord)
		got := must(PrefixSF(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true}}))
		if !got.Equal(want) {
			t.Errorf("%s: adaptive strict SF differs from sequential", name)
		}
	}
}

// TestAdaptiveRelaxedSFValidAndDeterministic: the relaxed (one-root)
// algorithm under an adaptive schedule still yields a valid spanning
// forest of the same cardinality as the sequential one (every spanning
// forest of an input has the same size), and the schedule — a pure
// function of machine-independent counters — makes reruns and grain
// changes bit-identical.
func TestAdaptiveRelaxedSFValidAndDeterministic(t *testing.T) {
	g := graph.Random(2000, 10000, 5)
	el := g.EdgeList()
	ord := core.NewRandomOrder(el.NumEdges(), 6)
	seq := referenceSF(el, ord)

	base := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true}}))
	if !IsForest(el, base.InForest) {
		t.Fatal("adaptive relaxed SF is not a forest")
	}
	if !IsSpanning(el, base.InForest) {
		t.Fatal("adaptive relaxed SF does not span the input's components")
	}
	if base.Size() != seq.Size() {
		t.Fatalf("adaptive relaxed SF size %d, sequential %d (both must equal n - #components)", base.Size(), seq.Size())
	}
	for _, grain := range []int{3, 128, 1024} {
		r := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true, Grain: grain}}))
		if !r.Equal(base) {
			t.Fatalf("grain %d changed the adaptive relaxed forest", grain)
		}
		if r.Stats != base.Stats {
			t.Fatalf("grain %d changed adaptive relaxed stats: %+v vs %+v", grain, r.Stats, base.Stats)
		}
	}
}
