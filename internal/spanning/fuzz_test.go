package spanning

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// FuzzSFEquivalence is the determinism invariant for spanning forest
// as a fuzz target, for arbitrary small graphs, seeds, windows and
// grains (1–3, so even tiny windows split into several racing chunks):
//   - the strict PrefixSF, at a fixed and an adaptive window, and the
//     sequential scan, with and without a prebuilt edge layout
//     (Options.Edges), must select exactly the reference forest
//     (referenceSF);
//   - the relaxed PrefixSFRelaxed must select a valid spanning forest
//     of the reference size, and the same one on a rerun, at every
//     grain for a fixed window and with the layout;
//   - no run may write into the layout: the root snapshots live in
//     the run's own window slots.
//
// Run with `go test -fuzz=FuzzSFEquivalence ./internal/spanning`.
func FuzzSFEquivalence(f *testing.F) {
	f.Add(uint8(10), uint16(20), uint64(1), uint8(4), uint8(0))
	f.Add(uint8(2), uint16(1), uint64(9), uint8(1), uint8(1))
	f.Add(uint8(60), uint16(400), uint64(3), uint8(255), uint8(2))
	f.Fuzz(func(t *testing.T, rawN uint8, rawM uint16, seed uint64, rawPrefix, rawGrain uint8) {
		n := int(rawN)%64 + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		el := graph.Random(n, m, seed).EdgeList()
		ord := core.NewRandomOrder(el.NumEdges(), seed^0xfeed)
		want := referenceSF(el, ord)
		layout := gathered(el, ord)
		for _, opt := range []Options{{}, {Edges: layout}} {
			if got := must(SequentialSF(context.Background(), el, ord, opt)); !got.Equal(want) {
				t.Fatalf("n=%d m=%d: sequential SF diverged from the reference", n, m)
			}
		}
		prefix := int(rawPrefix)%(m+1) + 1
		grain := int(rawGrain)%3 + 1

		for _, opt := range []Options{
			{Options: engine.Options{PrefixSize: prefix, Grain: grain}},
			{Options: engine.Options{Adaptive: true, PrefixSize: prefix, Grain: grain}},
			{Options: engine.Options{PrefixSize: prefix, Grain: grain}, Edges: layout},
			{Options: engine.Options{Adaptive: true, PrefixSize: prefix, Grain: grain}, Edges: layout},
		} {
			if got := must(PrefixSF(context.Background(), el, ord, opt)); !got.Equal(want) {
				t.Fatalf("n=%d m=%d opts %+v: strict SF diverged from the reference", n, m, opt.Options)
			}
		}

		relaxed := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: grain}}))
		if !IsForest(el, relaxed.InForest) || !IsSpanning(el, relaxed.InForest) || relaxed.Size() != want.Size() {
			t.Fatalf("n=%d m=%d prefix=%d grain=%d: relaxed SF is not a spanning forest of the reference size %d (got %d edges)",
				n, m, prefix, grain, want.Size(), relaxed.Size())
		}
		for _, g := range []int{grain, 1, 2, 3} {
			if again := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: g}})); !again.Equal(relaxed) {
				t.Fatalf("n=%d m=%d prefix=%d: relaxed SF at grain %d differs from grain %d", n, m, prefix, g, grain)
			}
		}
		if again := must(PrefixSFRelaxed(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: grain}, Edges: layout})); !again.Equal(relaxed) {
			t.Fatalf("n=%d m=%d prefix=%d grain=%d: relaxed SF differs with a prebuilt layout", n, m, prefix, grain)
		}
		checkLayout(t, el, ord, layout)
	})
}
