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
// without a shared edge buffer, must reproduce the greedy matching over
// the edge list (lexFirstMM) bit for bit, and the root-set counters must
// not depend on the buffer.
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
		root := must(RootSetMM(context.Background(), el, ord, Options{Options: engine.Options{Grain: grain}}))
		rootBuffer := must(RootSetMM(context.Background(), el, ord, Options{Options: engine.Options{Grain: grain}, Workspace: &Workspace{Edges: new([]graph.Edge)}}))
		if rootBuffer.Stats != root.Stats {
			t.Fatalf("n=%d m=%d grain=%d: root-set stats %v with a shared buffer, %v without", n, m, grain, rootBuffer.Stats, root.Stats)
		}
		for _, run := range []struct {
			name string
			got  *Result
		}{
			{"sequential", must(SequentialMM(context.Background(), el, ord, Options{}))},
			{"sequential buffer", must(SequentialMM(context.Background(), el, ord, Options{Workspace: &Workspace{Edges: new([]graph.Edge)}}))},
			{"prefix", must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: grain}}))},
			{"adaptive", must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{Adaptive: true, PrefixSize: prefix, Grain: grain}}))},
			{"parallel", must(PrefixMM(context.Background(), el, ord, Options{Options: engine.Options{PrefixFrac: 1, Grain: grain}}))},
			{"rootset", root},
			{"rootset buffer", rootBuffer},
		} {
			if !run.got.Equal(want) {
				t.Fatalf("n=%d m=%d prefix=%d grain=%d: %s MM diverged from the reference", n, m, prefix, grain, run.name)
			}
		}
	})
}
