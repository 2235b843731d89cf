package setcover

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// fuzzSystem builds numSets sets over n elements, deterministic in
// seed: sizes 0–4 drawn from a small id range, so empty sets, singletons
// and duplicate members all occur, plus — when there is any set at all —
// one set past inlineMax, which the layout stores as a reference.
func fuzzSystem(n, numSets int, seed uint64) *System {
	x := rng.NewXoshiro256(seed)
	sets := make([][]int32, numSets)
	for i := range sets {
		set := make([]int32, x.Intn(5))
		span := x.Intn(n) + 1
		for j := range set {
			set[j] = int32(x.Intn(span))
		}
		sets[i] = set
	}
	if numSets > 0 {
		big := make([]int32, inlineMax+1+x.Intn(2*inlineMax))
		for j := range big {
			big[j] = int32(x.Intn(n))
		}
		sets[x.Intn(numSets)] = big
	}
	return MustFromSets(n, sets)
}

// FuzzHittingSetEquivalence is the determinism invariant for greedy
// hitting set as a fuzz target: for arbitrary small FromSets and
// FromEdges systems, seeds, small windows and grains 1–3 (so even tiny
// windows split into several racing chunks), the prefix hitting set —
// fixed and adaptive windows, with the layout built per run or passed
// in prebuilt — and the sequential scan, with and without a prebuilt
// layout, must choose exactly the elements of the greedy reference
// (referenceHittingSet), and a prebuilt layout must not move the work
// counters. Run with
// `go test -fuzz=FuzzHittingSetEquivalence ./internal/setcover`.
func FuzzHittingSetEquivalence(f *testing.F) {
	f.Add(uint8(20), uint8(30), uint64(1), uint8(3), uint8(0), false)
	f.Add(uint8(2), uint8(1), uint64(7), uint8(0), uint8(1), false)
	f.Add(uint8(60), uint8(200), uint64(3), uint8(15), uint8(2), true)
	f.Add(uint8(9), uint8(40), uint64(11), uint8(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, rawN, rawSets uint8, seed uint64, rawPrefix, rawGrain uint8, edges bool) {
		n := int(rawN)%64 + 2
		var s *System
		if edges {
			m := int(rawSets) % (n*(n-1)/2 + 1)
			s = FromEdges(graph.Random(n, m, seed).EdgeList())
		} else {
			s = fuzzSystem(n, int(rawSets)%48, seed)
		}
		ord := core.NewRandomOrder(n, seed^0xfeed)
		want := referenceHittingSet(s, ord)
		if err := s.Verify(want.InSet); err != nil {
			t.Fatalf("reference answer is not a hitting set: %v", err)
		}
		prefix := int(rawPrefix)%16 + 1
		grain := int(rawGrain)%3 + 1
		layout := BuildLayout(s, ord)
		seq := must(SequentialHittingSet(context.Background(), s, ord, Options{}))
		prebuilt := must(SequentialHittingSet(context.Background(), s, ord, Options{Layout: layout}))
		if !seq.Equal(want) || !prebuilt.Equal(want) || prebuilt.Stats != seq.Stats {
			t.Fatalf("n=%d sets=%d edges=%v: sequential hitting set diverged from the reference", n, s.NumSets(), edges)
		}

		for _, opt := range []Options{
			{Options: engine.Options{PrefixSize: prefix, Grain: grain}},
			{Options: engine.Options{Adaptive: true, PrefixSize: prefix, Grain: grain}},
		} {
			got := must(PrefixHittingSet(context.Background(), s, ord, opt))
			if !got.Equal(want) {
				t.Fatalf("n=%d sets=%d edges=%v opts %+v: prefix hitting set diverged from the reference",
					n, s.NumSets(), edges, opt)
			}
			opt.Layout = layout
			prebuilt := must(PrefixHittingSet(context.Background(), s, ord, opt))
			if !prebuilt.Equal(want) || prebuilt.Stats != got.Stats {
				t.Fatalf("n=%d sets=%d edges=%v opts %+v: prebuilt layout changed the result or stats",
					n, s.NumSets(), edges, opt)
			}
		}
	})
}
