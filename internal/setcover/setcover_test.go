package setcover

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// randomSystem builds a random set system with n elements and m sets of
// size up to k, deterministic in seed. Some elements may appear in no
// set and some sets may be empty.
func randomSystem(n, m, k int, seed uint64) *System {
	x := rng.NewXoshiro256(seed)
	sets := make([][]int32, m)
	for i := range sets {
		sz := x.Intn(k + 1)
		set := make([]int32, 0, sz)
		for j := 0; j < sz; j++ {
			set = append(set, int32(x.Intn(n)))
		}
		sets[i] = set
	}
	return MustFromSets(n, sets)
}

// referenceHittingSet is the greedy hitting set over the system in
// priority order with per-set hit flags, the reference that shares no
// code with the engine adapter: an element joins exactly when some set
// containing it is not yet hit.
func referenceHittingSet(s *System, ord core.Order) *Result {
	r := &Result{InSet: make([]bool, s.NumElements())}
	hit := make([]bool, s.NumSets())
	for _, e := range ord.Order {
		for _, id := range s.SetsOf(e) {
			r.InSet[e] = r.InSet[e] || !hit[id]
		}
		if r.InSet[e] {
			for _, id := range s.SetsOf(e) {
				hit[id] = true
			}
		}
	}
	for e, in := range r.InSet {
		if in {
			r.Set = append(r.Set, int32(e))
		}
	}
	return r
}

func testSystems(tb testing.TB) map[string]*System {
	return map[string]*System{
		"random":     randomSystem(500, 300, 6, 11),
		"wide":       randomSystem(200, 40, 30, 7),
		"singleton":  randomSystem(100, 400, 1, 3),
		"vertexcov":  FromEdges(graph.Random(400, 1600, 5).EdgeList()),
		"gridcov":    FromEdges(graph.Grid2D(20, 20).EdgeList()),
		"emptysets":  MustFromSets(50, [][]int32{{}, {3, 4}, {}, {10}}),
		"nosets":     MustFromSets(64, nil),
		"duplicates": MustFromSets(8, [][]int32{{1, 1, 2}, {2, 2}, {0, 7, 7}}),
	}
}

// The prefix and sequential hitting sets must equal the greedy reference
// (referenceHittingSet) for every prefix size, fraction and grain — the
// engine-parity oracle for the hitting set problem.
func TestPrefixHittingSetMatchesSequential(t *testing.T) {
	for name, s := range testSystems(t) {
		n := s.NumElements()
		ord := core.NewRandomOrder(n, 99)
		want := referenceHittingSet(s, ord)
		if err := s.Verify(want.InSet); err != nil {
			t.Fatalf("%s: reference invalid: %v", name, err)
		}
		for _, opt := range []Options{{}, {Layout: BuildLayout(s, ord)}} {
			if got := must(SequentialHittingSet(context.Background(), s, ord, opt)); !got.Equal(want) {
				t.Fatalf("%s: sequential hitting set (prebuilt layout %v) differs from the reference", name, opt.Layout != nil)
			}
		}
		for _, opt := range []Options{
			{Options: engine.Options{PrefixSize: 1}},
			{Options: engine.Options{PrefixSize: 7, Grain: 3}},
			{Options: engine.Options{PrefixFrac: 0.01}},
			{Options: engine.Options{PrefixFrac: 0.2, Grain: 17}},
			{Options: engine.Options{PrefixFrac: 1}},
			{Options: engine.Options{Adaptive: true}},
			{Options: engine.Options{Adaptive: true, PrefixFrac: 0.05}},
		} {
			got := must(PrefixHittingSet(context.Background(), s, ord, opt))
			if !got.Equal(want) {
				t.Fatalf("%s opts %+v: prefix hitting set differs from sequential (%d vs %d)", name, opt, got.Size(), want.Size())
			}
			if err := s.Verify(got.InSet); err != nil {
				t.Fatalf("%s opts %+v: %v", name, opt, err)
			}
		}
	}
}

// Determinism across thread counts: the paper's central claim carries
// to the hitting set problem on the shared engine.
func TestPrefixHittingSetThreadIndependent(t *testing.T) {
	s := randomSystem(900, 700, 8, 21)
	ord := core.NewRandomOrder(900, 5)
	want := referenceHittingSet(s, ord)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := must(PrefixHittingSet(context.Background(), s, ord, Options{Options: engine.Options{PrefixFrac: 0.05, Grain: 7}}))
		if !got.Equal(want) {
			t.Fatalf("GOMAXPROCS=%d: hitting set differs from sequential", procs)
		}
		adaptive := must(PrefixHittingSet(context.Background(), s, ord, Options{Options: engine.Options{Adaptive: true}}))
		if !adaptive.Equal(want) {
			t.Fatalf("GOMAXPROCS=%d: adaptive hitting set differs from sequential", procs)
		}
	}
}

// Greedy vertex cover via FromEdges: the chosen elements must cover
// every edge.
func TestHittingSetCoversEdges(t *testing.T) {
	g := graph.Random(300, 1200, 9)
	el := g.EdgeList()
	s := FromEdges(el)
	ord := core.NewRandomOrder(s.NumElements(), 13)
	res := must(PrefixHittingSet(context.Background(), s, ord, Options{}))
	for _, e := range el.Edges {
		if !res.InSet[e.U] && !res.InSet[e.V] {
			t.Fatalf("edge {%d,%d} uncovered", e.U, e.V)
		}
	}
}

// Workspace reuse must not leak state between runs.
func TestHittingSetWorkspaceReuse(t *testing.T) {
	ws := new(Workspace)
	big := randomSystem(500, 350, 6, 1)
	small := randomSystem(40, 30, 4, 2)
	bigOrd := core.NewRandomOrder(500, 1)
	smallOrd := core.NewRandomOrder(40, 2)
	wantBig := referenceHittingSet(big, bigOrd)
	wantSmall := referenceHittingSet(small, smallOrd)
	for i := 0; i < 3; i++ {
		if got := must(PrefixHittingSet(context.Background(), big, bigOrd, Options{Options: engine.Options{PrefixFrac: 0.1}, Workspace: ws})); !got.Equal(wantBig) {
			t.Fatalf("run %d big: pooled run differs", i)
		}
		if got := must(PrefixHittingSet(context.Background(), small, smallOrd, Options{Options: engine.Options{Adaptive: true}, Workspace: ws})); !got.Equal(wantSmall) {
			t.Fatalf("run %d small: pooled run differs", i)
		}
		if got := must(SequentialHittingSet(context.Background(), big, bigOrd, Options{Workspace: ws})); !got.Equal(wantBig) {
			t.Fatalf("run %d big: pooled sequential run differs", i)
		}
	}
}

// Cancellation aborts within a round with ctx.Err().
func TestPrefixHittingSetCancel(t *testing.T) {
	s := randomSystem(400, 300, 5, 9)
	ord := core.NewRandomOrder(400, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrefixHittingSet(ctx, s, ord, Options{}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := SequentialHittingSet(ctx, s, ord, Options{}); err != context.Canceled {
		t.Fatalf("sequential: want context.Canceled, got %v", err)
	}
}

// FromSets validates element ids.
func TestFromSetsValidation(t *testing.T) {
	if _, err := FromSets(4, [][]int32{{0, 4}}); err == nil {
		t.Fatal("want error for out-of-range element")
	}
	if _, err := FromSets(4, [][]int32{{-1}}); err == nil {
		t.Fatal("want error for negative element")
	}
	if _, err := FromSets(-1, nil); err == nil {
		t.Fatal("want error for negative universe")
	}
}

// The dual CSR must invert correctly.
func TestSystemDual(t *testing.T) {
	s := MustFromSets(5, [][]int32{{0, 1}, {1, 2, 3}, {3}})
	if got := s.SetsOf(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("SetsOf(1) = %v", got)
	}
	if got := s.SetsOf(4); len(got) != 0 {
		t.Fatalf("SetsOf(4) = %v", got)
	}
	if got := s.ElemsOf(1); len(got) != 3 {
		t.Fatalf("ElemsOf(1) = %v", got)
	}
}

func BenchmarkPrefixHittingSet(b *testing.B) {
	s := FromEdges(graph.Random(20000, 100000, 42).EdgeList())
	ord := core.NewRandomOrder(s.NumElements(), 42)
	ws := new(Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(PrefixHittingSet(context.Background(), s, ord, Options{Workspace: ws}))
	}
}

// A set far past inlineMax must not make the layout quadratic: inlined,
// the 2,000-member set below would cost each member the ranks of all
// its earlier members, about two million words. Stored as references,
// no membership costs more than inlineMax words, and the run still
// equals the sequential one.
func TestLayoutLinearInMemberships(t *testing.T) {
	const n = 2_000
	big := make([]int32, n)
	for i := range big {
		big[i] = int32(i)
	}
	sets := [][]int32{big}
	x := rng.NewXoshiro256(4)
	for i := 0; i < 3_000; i++ {
		sets = append(sets, []int32{int32(x.Intn(n)), int32(x.Intn(n)), int32(x.Intn(n))})
	}
	s := MustFromSets(n, sets)
	memberships := 0
	for _, set := range sets {
		memberships += len(set)
	}
	ord := core.NewRandomOrder(n, 8)
	l := BuildLayout(s, ord)
	if words := len(l.words); words > inlineMax*memberships {
		t.Fatalf("layout holds %d words for %d memberships, want at most %d", words, memberships, inlineMax*memberships)
	}
	want := referenceHittingSet(s, ord)
	if got := must(PrefixHittingSet(context.Background(), s, ord, Options{Layout: l})); !got.Equal(want) {
		t.Fatal("prefix hitting set with a referenced set differs from the reference")
	}
	if got := must(SequentialHittingSet(context.Background(), s, ord, Options{Layout: l})); !got.Equal(want) {
		t.Fatal("sequential hitting set with a referenced set differs from the reference")
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
