package dynamic

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// both drives an MIS and an MM Maintainer of one graph through the same
// batches, under the priorities seed derives for each problem.
type both struct{ mis, mm *Maintainer }

func newBoth(ctx context.Context, g *graph.Graph, seed uint64) (both, error) {
	mis, err := NewMIS(ctx, g, core.NewRandomOrder(g.NumVertices(), seed), 0)
	if err != nil {
		return both{}, err
	}
	mm, err := NewMM(ctx, g, seed, 0)
	return both{mis, mm}, err
}

// apply applies batch to both Maintainers and reports the two repairs
// as one RepairStats: the MIS Maintainer's, with the MM section of the
// matching one.
func (b both) apply(ctx context.Context, batch []Update) (RepairStats, error) {
	st, err := b.mis.Apply(ctx, batch)
	if err != nil {
		return st, err
	}
	mm, err := b.mm.Apply(ctx, batch)
	st.MM = mm.MM
	return st, err
}

// verify checks both maintained answers with verifyAgainstScratch.
func (b both) verify(t *testing.T, seed uint64) {
	t.Helper()
	verifyAgainstScratch(t, b.mis, seed)
	verifyAgainstScratch(t, b.mm, seed)
}

// verifyAgainstScratch asserts the maintained answer is bit-identical
// to a from-scratch sequential greedy run on the mutated graph under
// the same priorities — the package's central contract.
func verifyAgainstScratch(t *testing.T, mt *Maintainer, seed uint64) {
	t.Helper()
	g := mt.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
	if mt.mis != nil {
		want := must(core.SequentialMIS(context.Background(), g, mt.mis.ord, core.Options{}))
		got := mt.MISResult()
		if len(got.InSet) != len(want.InSet) {
			t.Fatalf("MIS size mismatch: %d vs %d", len(got.InSet), len(want.InSet))
		}
		for v := range want.InSet {
			if got.InSet[v] != want.InSet[v] {
				t.Fatalf("MIS differs from sequential at vertex %d (got %v want %v)", v, got.InSet[v], want.InSet[v])
			}
		}
	}
	if mt.mm != nil {
		el := g.EdgeList()
		want := must(matching.SequentialMM(context.Background(), el, EdgeOrder(el, seed), matching.Options{}))
		got := mt.MatchingPairs()
		if len(got) != len(want.Pairs) {
			t.Fatalf("MM size mismatch: %d vs %d", len(got), len(want.Pairs))
		}
		for i := range got {
			if got[i] != want.Pairs[i] {
				t.Fatalf("MM differs from sequential at pair %d: got %v want %v", i, got[i], want.Pairs[i])
			}
		}
	}
}

// randomBatch builds a valid batch of size k against mt's current
// graph: a mix of deletions of present edges and insertions of absent
// pairs, no edge repeated within the batch.
func randomBatch(x *rng.Xoshiro256, mt *Maintainer, k int) []Update {
	g := mt.Graph()
	edges := g.Edges()
	n := mt.NumVertices()
	var batch []Update
	used := make(map[[2]int32]bool)
	for len(batch) < k {
		if len(edges) > 0 && (x.Intn(2) == 0 || n < 3) {
			e := edges[x.Intn(len(edges))]
			key := [2]int32{e.U, e.V}
			if used[key] {
				continue
			}
			used[key] = true
			batch = append(batch, Update{Op: OpDel, U: e.U, V: e.V})
		} else {
			u := int32(x.Intn(n))
			v := int32(x.Intn(n))
			if u == v {
				continue
			}
			cu, cv := canonical(u, v)
			key := [2]int32{cu, cv}
			if used[key] || mt.ov.hasEdge(cu, cv) {
				continue
			}
			used[key] = true
			batch = append(batch, Update{Op: OpAdd, U: u, V: v})
		}
	}
	return batch
}

func families(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	base := graph.Random(400, 1200, 7)
	lg, _ := graph.LineGraph(graph.Random(60, 150, 3))
	return map[string]*graph.Graph{
		"random":    base,
		"rmat":      graph.RMat(9, 1500, 11),
		"grid":      graph.Grid2D(20, 20),
		"linegraph": lg,
		"empty":     graph.Empty(50),
	}
}

// TestRepairEquivalence drives randomized update batches of several
// sizes over several graph families and asserts bit-identical
// agreement with from-scratch sequential runs after every batch.
func TestRepairEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, g := range families(t) {
		t.Run(name, func(t *testing.T) {
			const seed = 5
			b, err := newBoth(ctx, g, seed)
			if err != nil {
				t.Fatal(err)
			}
			b.verify(t, seed)
			x := rng.NewXoshiro256(99)
			for step, k := range []int{1, 1, 2, 7, 1, 31, 3, 64, 1} {
				batch := randomBatch(x, b.mis, k)
				st, err := b.apply(ctx, batch)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if st.Added+st.Removed != len(batch) {
					t.Fatalf("step %d: applied %d+%d updates, want %d", step, st.Added, st.Removed, len(batch))
				}
				b.verify(t, seed)
			}
		})
	}
}

// TestRepairEquivalenceExplicitOrder checks MIS maintenance under an
// explicit (identity) order — the adversarial lexicographically-first
// instance.
func TestRepairEquivalenceExplicitOrder(t *testing.T) {
	ctx := context.Background()
	g := graph.Grid2D(12, 12)
	mt, err := NewMIS(ctx, g, core.IdentityOrder(g.NumVertices()), 0)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NewXoshiro256(3)
	for i := 0; i < 12; i++ {
		if _, err := mt.Apply(ctx, randomBatch(x, mt, 5)); err != nil {
			t.Fatal(err)
		}
		verifyAgainstScratch(t, mt, 0)
	}
}

// TestCompaction drives the overlay past the churn threshold and
// checks it is folded into a fresh CSR without changing answers.
func TestCompaction(t *testing.T) {
	ctx := context.Background()
	g := graph.Random(120, 300, 1)
	b, err := newBoth(ctx, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NewXoshiro256(17)
	compacted := false
	for i := 0; i < 10; i++ {
		st, err := b.apply(ctx, randomBatch(x, b.mis, 20))
		if err != nil {
			t.Fatal(err)
		}
		if st.Compacted {
			compacted = true
			for _, mt := range []*Maintainer{b.mis, b.mm} {
				if mt.ov.churn != 0 || len(mt.ov.add) != 0 || len(mt.ov.del) != 0 {
					t.Fatal("compaction left overlay deltas behind")
				}
			}
		}
		b.verify(t, 2)
	}
	if !compacted {
		t.Fatal("the churn threshold never triggered compaction over 200 updates")
	}
}

// TestBatchValidation checks every rejection path and that a rejected
// batch mutates nothing.
func TestBatchValidation(t *testing.T) {
	ctx := context.Background()
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	b, err := newBoth(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		batch []Update
	}{
		{"self loop", []Update{{Op: OpAdd, U: 2, V: 2}}},
		{"out of range", []Update{{Op: OpAdd, U: 0, V: 4}}},
		{"negative", []Update{{Op: OpDel, U: -1, V: 1}}},
		{"add existing", []Update{{Op: OpAdd, U: 1, V: 0}}},
		{"del missing", []Update{{Op: OpDel, U: 0, V: 3}}},
		{"dup in batch", []Update{{Op: OpAdd, U: 0, V: 2}, {Op: OpAdd, U: 2, V: 0}}},
		{"add then del same edge", []Update{{Op: OpAdd, U: 0, V: 2}, {Op: OpDel, U: 0, V: 2}}},
		{"unknown op", []Update{{Op: Op(9), U: 0, V: 2}}},
		{"valid then invalid", []Update{{Op: OpDel, U: 0, V: 1}, {Op: OpAdd, U: 3, V: 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mt := range []*Maintainer{b.mis, b.mm} {
				before := mt.NumEdges()
				_, err := mt.Apply(ctx, tc.batch)
				if !errors.Is(err, ErrBadUpdate) {
					t.Fatalf("got %v, want ErrBadUpdate", err)
				}
				if mt.NumEdges() != before {
					t.Fatal("rejected batch mutated the graph")
				}
			}
			b.verify(t, 0)
		})
	}
}

// TestInertUpdatesSkipRepair checks the provably-inert seed pruning: a
// change incident to an Out earlier endpoint produces no MIS seeds and
// therefore zero repair work.
func TestInertUpdatesSkipRepair(t *testing.T) {
	ctx := context.Background()
	// Path 0-1-2 under identity order: 0 in, 1 out, 2 in.
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	mt, err := NewMIS(ctx, g, core.IdentityOrder(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Insert {1,3}: earlier endpoint 1 is Out, so 3's decision cannot
	// change — no seeds, no frontier.
	st, err := mt.Apply(ctx, []Update{{Op: OpAdd, U: 1, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.MIS.Seeds != 0 || st.MIS.Visited != 0 || st.MIS.Rounds != 0 {
		t.Fatalf("inert insert ran repair: %+v", st.MIS)
	}
	verifyAgainstScratch(t, mt, 0)
	// Insert {0,3}: earlier endpoint 0 is In, 3 must flip out.
	st, err = mt.Apply(ctx, []Update{{Op: OpAdd, U: 0, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.MIS.Seeds == 0 || st.MIS.Changed == 0 {
		t.Fatalf("effective insert reported no repair: %+v", st.MIS)
	}
	verifyAgainstScratch(t, mt, 0)
}

// TestRepairLocality checks the headline property on a larger random
// graph: single-edge repair visits a region that is orders of
// magnitude smaller than the graph.
func TestRepairLocality(t *testing.T) {
	ctx := context.Background()
	g := graph.Random(50_000, 250_000, 21)
	const seed = 9
	b, err := newBoth(ctx, g, seed)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NewXoshiro256(5)
	var totalVisited int64
	const steps = 40
	for i := 0; i < steps; i++ {
		st, err := b.apply(ctx, randomBatch(x, b.mis, 1))
		if err != nil {
			t.Fatal(err)
		}
		totalVisited += int64(st.MIS.Visited) + int64(st.MM.Visited)
	}
	if avg := totalVisited / steps; avg > int64(g.NumVertices())/10 {
		t.Fatalf("mean repaired region %d is not small relative to n=%d", avg, g.NumVertices())
	}
	b.verify(t, seed)
}

// TestPinnedRepairCounters pins the MIS and MM RepairCost of every
// Apply over one fixed graph, seed and batch sequence. The counters are
// a pure function of (graph, priorities, batches), so a change to the
// repair loop that keeps the answers but moves the repair work fails
// here.
func TestPinnedRepairCounters(t *testing.T) {
	ctx := context.Background()
	g := graph.Random(4_000, 20_000, 41)
	b, err := newBoth(ctx, g, 13)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		k       int
		mis, mm RepairCost
	}{
		{1, RepairCost{Seeds: 1, Visited: 1, Flipped: 0, FrontierPeak: 1, Rounds: 1, Attempts: 1, Inspections: 8, Changed: 0},
			RepairCost{}},
		{8, RepairCost{Seeds: 1, Visited: 1, Flipped: 0, FrontierPeak: 1, Rounds: 1, Attempts: 1, Inspections: 1, Changed: 0},
			RepairCost{Seeds: 1, Visited: 1, Flipped: 0, FrontierPeak: 1, Rounds: 1, Attempts: 1, Inspections: 4, Changed: 0}},
		{64, RepairCost{Seeds: 17, Visited: 100, Flipped: 23, FrontierPeak: 45, Rounds: 96, Attempts: 100, Inspections: 355, Changed: 23},
			RepairCost{Seeds: 108, Visited: 294, Flipped: 25, FrontierPeak: 189, Rounds: 253, Attempts: 294, Inspections: 1292, Changed: 25}},
		{512, RepairCost{Seeds: 175, Visited: 491, Flipped: 79, FrontierPeak: 286, Rounds: 398, Attempts: 491, Inspections: 1379, Changed: 79},
			RepairCost{Seeds: 576, Visited: 1494, Flipped: 140, FrontierPeak: 955, Rounds: 759, Attempts: 1497, Inspections: 7196, Changed: 140}},
		{1, RepairCost{},
			RepairCost{Seeds: 1, Visited: 1, Flipped: 0, FrontierPeak: 1, Rounds: 1, Attempts: 1, Inspections: 2, Changed: 0}},
		{8, RepairCost{Seeds: 5, Visited: 34, Flipped: 6, FrontierPeak: 26, Rounds: 34, Attempts: 34, Inspections: 89, Changed: 6},
			RepairCost{Seeds: 5, Visited: 5, Flipped: 0, FrontierPeak: 5, Rounds: 5, Attempts: 5, Inspections: 22, Changed: 0}},
		{64, RepairCost{Seeds: 16, Visited: 18, Flipped: 1, FrontierPeak: 16, Rounds: 18, Attempts: 18, Inspections: 41, Changed: 1},
			RepairCost{Seeds: 59, Visited: 219, Flipped: 22, FrontierPeak: 149, Rounds: 195, Attempts: 219, Inspections: 1100, Changed: 22}},
	}
	x := rng.NewXoshiro256(4)
	for step, w := range want {
		st, err := b.apply(ctx, randomBatch(x, b.mis, w.k))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if st.MIS != w.mis {
			t.Errorf("step %d (k=%d) mis: %+v, want %+v", step, w.k, st.MIS, w.mis)
		}
		if st.MM != w.mm {
			t.Errorf("step %d (k=%d) mm: %+v, want %+v", step, w.k, st.MM, w.mm)
		}
	}
	b.verify(t, 13)
}

// TestMaintainerCancellation checks that a context cancelled before
// Apply is honored and that a cancelled initial computation returns no
// Maintainer.
func TestMaintainerCancellation(t *testing.T) {
	g := graph.Random(1000, 3000, 1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewMIS(cancelled, g, core.NewRandomOrder(g.NumVertices(), 0), 0); err == nil {
		t.Fatal("NewMIS succeeded with a cancelled context")
	}
	if _, err := NewMM(cancelled, g, 0, 0); err == nil {
		t.Fatal("NewMM succeeded with a cancelled context")
	}
	b, err := newBoth(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range []*Maintainer{b.mis, b.mm} {
		if _, err := mt.Apply(cancelled, []Update{{Op: OpAdd, U: 0, V: 999}}); err == nil {
			t.Fatal("Apply succeeded with a cancelled context")
		}
	}
	// The cancellation was observed before any mutation: the
	// maintainers are still usable.
	if _, err := b.apply(context.Background(), randomBatch(rng.NewXoshiro256(1), b.mis, 3)); err != nil {
		t.Fatal(err)
	}
	b.verify(t, 0)
}

// TestEdgeOrderStability checks that EdgePriority-derived orders rank
// surviving edges identically across graph versions — the property
// that makes matching maintenance well defined.
func TestEdgeOrderStability(t *testing.T) {
	g := graph.Random(100, 300, 4)
	el := g.EdgeList()
	ord := EdgeOrder(el, 8)
	if err := ord.Validate(); err != nil {
		t.Fatal(err)
	}
	// Relative order of two fixed edges must not depend on the rest of
	// the edge set.
	a, b := el.Edges[0], el.Edges[1]
	abBefore := ord.Rank[0] < ord.Rank[1]
	pa, pb := EdgePriority(a.U, a.V, 8), EdgePriority(b.U, b.V, 8)
	if (pa < pb) != abBefore {
		t.Fatal("EdgeOrder disagrees with raw EdgePriority comparison")
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
