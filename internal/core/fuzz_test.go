package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// FuzzMISEquivalence is the determinism invariant as a fuzz target: for
// arbitrary small graphs, seeds and prefix sizes, every MIS variant —
// the prefix runs, and the sequential scan and the root-set steps with
// and without prebuilt parent lists — must reproduce the vertex-space
// Algorithm 1 (lexFirstMIS) bit-for-bit, and the root-set counters must
// not depend on where the parent lists came from.
// Run with `go test -fuzz=FuzzMISEquivalence ./internal/core`.
func FuzzMISEquivalence(f *testing.F) {
	f.Add(uint8(10), uint16(20), uint64(1), uint8(4))
	f.Add(uint8(2), uint16(1), uint64(9), uint8(1))
	f.Add(uint8(60), uint16(400), uint64(3), uint8(255))
	f.Fuzz(func(t *testing.T, rawN uint8, rawM uint16, seed uint64, rawPrefix uint8) {
		n := int(rawN)%64 + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := graph.Random(n, m, seed)
		ord := NewRandomOrder(n, seed^0xfeed)
		want := referenceMIS(g, ord)
		if !IsMaximalIndependentSet(g, want.InSet) {
			t.Fatal("reference answer is not a maximal independent set")
		}
		prefix := int(rawPrefix)%n + 1
		parents := BuildParents(g, ord)
		root := must(RootSetMIS(context.Background(), g, ord, Options{Options: engine.Options{Grain: 3}}))
		rootParents := must(RootSetMIS(context.Background(), g, ord, Options{Options: engine.Options{Grain: 3}, Parents: parents}))
		if rootParents.Stats != root.Stats {
			t.Fatalf("n=%d m=%d: root-set stats %v with prebuilt parents, %v without", n, m, rootParents.Stats, root.Stats)
		}
		for _, got := range []*Result{
			must(SequentialMIS(context.Background(), g, ord, Options{})),
			must(SequentialMIS(context.Background(), g, ord, Options{Parents: parents})),
			must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: prefix}, Parents: parents})),
			must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: prefix, Grain: 3}})),
			must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: prefix}, Pointered: true})),
			root,
			rootParents,
			must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1}})),
		} {
			if !got.Equal(want) {
				t.Fatalf("n=%d m=%d prefix=%d: MIS diverged from the reference", n, m, prefix)
			}
		}
		if got := DependenceSteps(g, ord); got.Steps > LongestPath(g, ord) {
			t.Fatal("dependence length exceeds the longest priority-DAG path")
		}
	})
}
