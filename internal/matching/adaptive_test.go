package matching

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// TestAdaptiveMMMatchesSequential: the adaptive window schedule returns
// exactly the sequential greedy matching on every input family, like
// every fixed prefix does.
func TestAdaptiveMMMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":   graph.Random(2000, 10000, 7),
		"grid":     graph.Grid2D(48, 48),
		"star":     graph.Star(400),
		"complete": graph.Complete(96),
		"path":     graph.Path(1500),
	}
	for name, g := range graphs {
		el := g.EdgeList()
		m := el.NumEdges()
		for _, seed := range []uint64{1, 5} {
			ord := core.NewRandomOrder(m, seed)
			want := referenceMM(el, ord)
			got := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true}}))
			if !got.Equal(want) {
				t.Errorf("%s seed %d: adaptive MM differs from sequential", name, seed)
			}
			if err := VerifyLexFirst(el, ord, got); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
			// An explicit seed window (fixed config as starting point)
			// must not change the answer either.
			seeded := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true, PrefixSize: m/2 + 1}}))
			if !seeded.Equal(want) {
				t.Errorf("%s seed %d: adaptive MM with explicit seed window differs", name, seed)
			}
		}
	}
}

// TestAdaptiveMMScheduleGrainIndependent: the schedule consumes only
// machine-independent counters, so Stats are identical for any grain.
func TestAdaptiveMMScheduleGrainIndependent(t *testing.T) {
	g := graph.Random(1500, 7500, 3)
	el := g.EdgeList()
	ord := core.NewRandomOrder(el.NumEdges(), 4)
	base := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true}}))
	for _, grain := range []int{5, 64, 2048} {
		r := must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true, Grain: grain}}))
		if r.Stats != base.Stats {
			t.Fatalf("grain %d changed adaptive MM stats: %+v vs %+v", grain, r.Stats, base.Stats)
		}
		if !r.Equal(base) {
			t.Fatalf("grain %d changed adaptive MM result", grain)
		}
	}
}
