package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

func TestLubyCompleteGraph(t *testing.T) {
	// On K_n one vertex wins round 1 and kills everyone: exactly one
	// round, one MIS member.
	g := graph.Complete(200)
	r := must(LubyMIS(context.Background(), g, 5, Options{}))
	if r.Size() != 1 {
		t.Errorf("K200 Luby MIS size = %d, want 1", r.Size())
	}
	if r.Stats.Rounds != 1 {
		t.Errorf("K200 Luby rounds = %d, want 1", r.Stats.Rounds)
	}
}

func TestLubyEmptyAndEdgeless(t *testing.T) {
	if r := must(LubyMIS(context.Background(), graph.Empty(0), 1, Options{})); r.Size() != 0 {
		t.Error("Luby on empty graph returned vertices")
	}
	r := must(LubyMIS(context.Background(), graph.Empty(100), 1, Options{}))
	if r.Size() != 100 {
		t.Errorf("Luby on edgeless graph: size %d, want 100", r.Size())
	}
	if r.Stats.Rounds != 1 {
		t.Errorf("Luby on edgeless graph: rounds %d, want 1", r.Stats.Rounds)
	}
}

func TestPrefixMISIsolatedVertices(t *testing.T) {
	// A matching plus isolated vertices: isolates always join the MIS.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	g := graph.MustFromEdges(10, edges)
	ord := NewRandomOrder(10, 3)
	r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	for v := graph.Vertex(4); v < 10; v++ {
		if !r.InSet[v] {
			t.Errorf("isolated vertex %d not in MIS", v)
		}
	}
	if r.Size() != 8 { // one endpoint per edge + 6 isolates
		t.Errorf("MIS size = %d, want 8", r.Size())
	}
	if err := VerifyLexFirst(g, ord, r); err != nil {
		t.Error(err)
	}
}

func TestRootSetMISIsolatedOnlyGraph(t *testing.T) {
	g := graph.Empty(50)
	r := must(RootSetMIS(context.Background(), g, NewRandomOrder(50, 1), Options{}))
	if r.Size() != 50 || r.Stats.Rounds != 1 {
		t.Errorf("edgeless rootset: size=%d rounds=%d", r.Size(), r.Stats.Rounds)
	}
}

func TestPrefixMISTwoVertices(t *testing.T) {
	g := graph.Path(2)
	for seed := uint64(0); seed < 8; seed++ {
		ord := NewRandomOrder(2, seed)
		r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: 2}}))
		// Exactly the earlier vertex is in the MIS.
		first := ord.Order[0]
		if !r.InSet[first] || r.InSet[1-first] {
			t.Errorf("seed %d: wrong K2 MIS %v", seed, r.Set)
		}
	}
}

func TestDependenceStepsEmptyGraph(t *testing.T) {
	info := DependenceSteps(graph.Empty(0), IdentityOrder(0))
	if info.Steps != 0 {
		t.Errorf("empty graph dependence = %d", info.Steps)
	}
	one := DependenceSteps(graph.Empty(7), NewRandomOrder(7, 1))
	if one.Steps != 1 {
		t.Errorf("edgeless dependence = %d, want 1", one.Steps)
	}
}

func TestMaxDegreeAfterPrefixEdgeCases(t *testing.T) {
	g := graph.Complete(10)
	ord := IdentityOrder(10)
	if d := MaxDegreeAfterPrefix(g, ord, 0); d != 9 {
		t.Errorf("empty prefix leaves max degree %d, want 9", d)
	}
	if d := MaxDegreeAfterPrefix(g, ord, 10); d != 0 {
		t.Errorf("full prefix leaves max degree %d, want 0", d)
	}
	// Prefix larger than n is clamped.
	if d := MaxDegreeAfterPrefix(g, ord, 99); d != 0 {
		t.Errorf("overlong prefix leaves max degree %d", d)
	}
}

func TestPrefixInternalEdgesFullPrefix(t *testing.T) {
	g := graph.Complete(8)
	ord := IdentityOrder(8)
	edges, with := PrefixInternalEdges(g, ord, 8)
	if edges != 28 {
		t.Errorf("full-prefix internal edges = %d, want 28", edges)
	}
	if with != 8 {
		t.Errorf("vertices with internal edges = %d, want 8", with)
	}
}

// TestOptionsPrefixResolution pins the fixed window that core.Options
// hands the engine (PrefixMIS passes opt.Options to engine.Run).
func TestOptionsPrefixResolution(t *testing.T) {
	eo := func(o engine.Options) Options { return Options{Options: o} }
	cases := []struct {
		opt  Options
		n    int
		want int
	}{
		{eo(engine.Options{}), 1000, 5},                 // default frac 0.005, exact product
		{eo(engine.Options{PrefixFrac: 2.0}), 100, 100}, // clamped to n
		{eo(engine.Options{PrefixFrac: 1e-9}), 100, 1},  // clamped to 1
		{eo(engine.Options{PrefixSize: 17}), 100, 17},   // absolute wins
		{eo(engine.Options{PrefixSize: 500}), 100, 100}, // clamped to n
		{eo(engine.Options{PrefixFrac: 0.25}), 100, 25}, // frac honored
		{eo(engine.Options{PrefixSize: -3}), 100, 1},    // negative: ⌈0.005·100⌉ = 1
		// Ceiling semantics: a fractional product rounds UP to the
		// documented ⌈frac·n⌉ instead of truncating down.
		{eo(engine.Options{PrefixFrac: 0.005}), 1100, 6}, // ⌈5.5⌉, int() used to give 5
		{eo(engine.Options{PrefixFrac: 0.005}), 300, 2},  // ⌈1.5⌉
		{eo(engine.Options{PrefixFrac: 1.0 / 3}), 10, 4}, // ⌈3.33⌉
		{eo(engine.Options{PrefixFrac: 0.003}), 999, 3},  // ⌈2.997⌉
		// Degenerate inputs: n = 0 and n = 1.
		{eo(engine.Options{}), 0, 0},
		{eo(engine.Options{PrefixFrac: 1}), 0, 0},
		{eo(engine.Options{PrefixSize: 7}), 0, 0},
		{eo(engine.Options{}), 1, 1},
		{eo(engine.Options{PrefixFrac: 1e-12}), 1, 1},
		{eo(engine.Options{PrefixFrac: 1}), 1, 1},
		// frac → 0 and frac = 1 at larger n.
		{eo(engine.Options{PrefixFrac: 1e-300}), 1 << 20, 1},
		{eo(engine.Options{PrefixFrac: 1}), 1 << 20, 1 << 20},
		// The MIS-only fields do not move the window.
		{Options{Options: engine.Options{PrefixSize: 17}, Pointered: true}, 100, 17},
	}
	for i, c := range cases {
		if got := c.opt.PrefixFor(c.n); got != c.want {
			t.Errorf("case %d: PrefixFor(%d) = %d, want %d", i, c.n, got, c.want)
		}
	}
}

func TestLubyDifferentFromGreedyUsually(t *testing.T) {
	// Not a guarantee, but on a decent-size graph Luby's set should
	// differ from the greedy one for at least one of several seeds —
	// the "different results" the paper contrasts determinism against.
	g := graph.Random(500, 2500, 11)
	ord := NewRandomOrder(500, 12)
	want := referenceMIS(g, ord)
	differs := false
	for seed := uint64(0); seed < 5; seed++ {
		if !must(LubyMIS(context.Background(), g, seed, Options{})).Equal(want) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("Luby agreed with greedy for 5 seeds straight (vanishingly unlikely)")
	}
}

// newResult runs inside a job's run span after the last round, so it
// must stay engine.Members' pair of plain loops: it allocates the
// Result, its InSet and its Set, sized exactly, and nothing else.
func TestNewResultAllocatesOnlyTheResult(t *testing.T) {
	ord := NewRandomOrder(4000, 2)
	status := make([]int32, 4000)
	for r := range status {
		status[r] = statusOut
		if r%3 == 0 {
			status[r] = statusIn
		}
	}
	res := newResult(status, ord.Order, Stats{})
	if len(res.Set) != cap(res.Set) || len(res.Set) != 1334 {
		t.Fatalf("Set has length %d and capacity %d, want 1334 and 1334", len(res.Set), cap(res.Set))
	}
	for i, v := range res.Set {
		if !res.InSet[v] || status[ord.Rank[v]] != statusIn || (i > 0 && res.Set[i-1] >= v) {
			t.Fatalf("Set[%d] = %d disagrees with the statuses or is out of order", i, v)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { newResult(status, ord.Order, Stats{}) }); allocs > 3 {
		t.Fatalf("newResult allocates %.0f times, want 3", allocs)
	}
}
