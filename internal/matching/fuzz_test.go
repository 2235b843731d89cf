package matching

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// FuzzMMEquivalence is the determinism invariant for maximal matching
// as a fuzz target: for arbitrary small graphs, seeds, windows and
// grains, the prefix (fixed and adaptive) and full-window parallel
// matchings, and the sequential scan and the root-set steps with and
// without a prebuilt edge layout (Options.Edges), must reproduce the
// greedy matching over the edge list (lexFirstMM) bit for bit; the
// root-set counters must not depend on the layout, and no run may write
// into it.
// Grains of 1–3 split even tiny windows into several chunks, so the
// reservation bids and in-commit releases race across goroutines when
// GOMAXPROCS > 1. Run with `go test -fuzz=FuzzMMEquivalence
// ./internal/matching`.
func FuzzMMEquivalence(f *testing.F) {
	f.Add(uint8(10), uint16(20), uint64(1), uint8(4), uint8(0))
	f.Add(uint8(2), uint16(1), uint64(9), uint8(1), uint8(1))
	f.Add(uint8(60), uint16(400), uint64(3), uint8(255), uint8(2))
	f.Fuzz(func(t *testing.T, rawN uint8, rawM uint16, seed uint64, rawPrefix, rawGrain uint8) {
		n := int(rawN)%64 + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		el := graph.Random(n, m, seed).EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), seed^0xfeed)
		want := referenceMM(el, ord)
		if !IsMaximalMatching(el, want.InMatching) {
			t.Fatal("reference answer is not a maximal matching")
		}
		prefix := int(rawPrefix)%(m+1) + 1
		grain := int(rawGrain)%3 + 1
		layout := gathered(el, ord)
		root := must(RootSetMM(context.Background(), el, ord, Options{Options: engine.Options{Grain: grain}}))
		rootLayout := must(RootSetMM(context.Background(), el, ord, Options{Options: engine.Options{Grain: grain}, Edges: layout}))
		if rootLayout.Stats != root.Stats {
			t.Fatalf("n=%d m=%d grain=%d: root-set stats %v with a prebuilt layout, %v without", n, m, grain, rootLayout.Stats, root.Stats)
		}
		for _, run := range []struct {
			name string
			got  *Result
		}{
			{"sequential", must(SequentialMM(context.Background(), el, ord, Options{}))},
			{"sequential layout", must(SequentialMM(context.Background(), el, ord, Options{Edges: layout}))},
			{"prefix", must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: grain}}))},
			{"prefix layout", must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: grain}, Edges: layout}))},
			{"adaptive", must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true, PrefixSize: prefix, Grain: grain}}))},
			{"parallel", must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1, Grain: grain}}))},
			{"rootset", root},
			{"rootset layout", rootLayout},
		} {
			if !run.got.Equal(want) {
				t.Fatalf("n=%d m=%d prefix=%d grain=%d: %s MM diverged from the reference", n, m, prefix, grain, run.name)
			}
		}
		checkLayout(t, el, ord, layout)
	})
}
