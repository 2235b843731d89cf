package coloring

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// FuzzColoringEquivalence is the determinism invariant for greedy
// coloring as a fuzz target: for arbitrary small graphs, seeds, windows
// and grains, the prefix coloring (fixed and adaptive windows, with the
// parent lists built per run or passed in prebuilt) and the sequential
// scan (with and without prebuilt parent lists) must reproduce the
// vertex-space first-fit reference (referenceColoring) exactly. Graphs reach 73 vertices, so a
// dense input needs more than one 64-color window. Run with
// `go test -fuzz=FuzzColoringEquivalence ./internal/coloring`.
func FuzzColoringEquivalence(f *testing.F) {
	f.Add(uint8(10), uint16(20), uint64(1), uint8(4), uint8(0))
	f.Add(uint8(2), uint16(1), uint64(9), uint8(1), uint8(1))
	f.Add(uint8(70), uint16(2556), uint64(5), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, rawN uint8, rawM uint16, seed uint64, rawPrefix, rawGrain uint8) {
		n := int(rawN)%72 + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := graph.Random(n, m, seed)
		ord := core.NewRandomOrder(n, seed^0xfeed)
		want := referenceColoring(g, ord)
		if err := Verify(g, want.Colors); err != nil {
			t.Fatalf("reference answer is not a proper coloring: %v", err)
		}
		prefix := int(rawPrefix)%n + 1
		grain := int(rawGrain)%3 + 1
		parents := core.BuildParents(g, ord)
		for _, run := range []struct {
			name string
			got  *Result
		}{
			{"sequential", must(SequentialColoring(context.Background(), g, ord, Options{}))},
			{"sequential prebuilt parents", must(SequentialColoring(context.Background(), g, ord, Options{Parents: parents}))},
			{"prefix", must(PrefixColoring(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: grain}}))},
			{"adaptive", must(PrefixColoring(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, PrefixSize: prefix, Grain: grain}}))},
			{"prebuilt parents", must(PrefixColoring(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: grain}, Parents: parents}))},
		} {
			if !run.got.Equal(want) {
				t.Fatalf("n=%d m=%d prefix=%d grain=%d: %s coloring diverged from the reference", n, m, prefix, grain, run.name)
			}
		}
	})
}
