package coloring

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// referenceColoring is first-fit over the vertex-space CSR in priority
// order, the reference that shares no code with the engine adapter:
// each vertex takes the smallest color no already-colored neighbor has.
func referenceColoring(g *graph.Graph, ord core.Order) *Result {
	colors := make([]int32, g.NumVertices())
	for v := range colors {
		colors[v] = uncolored
	}
	num := 0
	for _, v := range ord.Order {
		used := make([]bool, g.Degree(v)+1)
		for _, u := range g.Neighbors(v) {
			if c := colors[u]; c >= 0 && int(c) < len(used) {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = int32(c)
		num = max(num, c+1)
	}
	return &Result{Colors: colors, NumColors: num}
}

func testGraphs(tb testing.TB) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"random":   graph.Random(600, 2400, 7),
		"rmat":     graph.RMat(9, 2000, 11),
		"grid":     graph.Grid2D(24, 25),
		"star":     graph.Star(301),
		"complete": graph.Complete(41),
		"path":     graph.Path(500),
		"empty":    graph.Empty(128),
		"tree":     graph.RandomTree(400, 3),
	}
}

// The prefix and sequential colorings must equal the first-fit
// reference (referenceColoring) for every prefix size, fraction and
// grain — the engine-parity oracle for the coloring problem.
func TestPrefixColoringMatchesSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		n := g.NumVertices()
		ord := core.NewRandomOrder(n, 99)
		want := referenceColoring(g, ord)
		if err := Verify(g, want.Colors); err != nil {
			t.Fatalf("%s: reference invalid: %v", name, err)
		}
		parents := core.BuildParents(g, ord)
		for _, opt := range []Options{{}, {Parents: parents}} {
			if got := must(SequentialColoring(context.Background(), g, ord, opt)); !got.Equal(want) {
				t.Fatalf("%s: sequential coloring (prebuilt parents %v) differs from the reference", name, opt.Parents != nil)
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
			got := must(PrefixColoring(context.Background(), g, ord, opt))
			if !got.Equal(want) {
				t.Fatalf("%s opts %+v: prefix coloring differs from sequential", name, opt)
			}
			if err := Verify(g, got.Colors); err != nil {
				t.Fatalf("%s opts %+v: %v", name, opt, err)
			}
		}
	}
}

// The identity order on a path forces the worst-case dependence chain;
// the result must still match the sequential coloring.
func TestPrefixColoringIdentityOrder(t *testing.T) {
	g := graph.Path(300)
	ord := core.IdentityOrder(300)
	want := referenceColoring(g, ord)
	got := must(PrefixColoring(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	if !got.Equal(want) {
		t.Fatal("identity order: prefix differs from sequential")
	}
	if want.NumColors != 2 {
		t.Fatalf("identity-order path should 2-color, got %d", want.NumColors)
	}
}

// Determinism across thread counts: the paper's central claim carries
// to the coloring problem on the shared engine.
func TestPrefixColoringThreadIndependent(t *testing.T) {
	g := graph.Random(900, 5400, 21)
	ord := core.NewRandomOrder(900, 5)
	want := referenceColoring(g, ord)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := must(PrefixColoring(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.05, Grain: 7}}))
		if !got.Equal(want) {
			t.Fatalf("GOMAXPROCS=%d: coloring differs from sequential", procs)
		}
		adaptive := must(PrefixColoring(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true}}))
		if !adaptive.Equal(want) {
			t.Fatalf("GOMAXPROCS=%d: adaptive coloring differs from sequential", procs)
		}
	}
}

// Workspace reuse must not leak state between runs.
func TestColoringWorkspaceReuse(t *testing.T) {
	ws := new(Workspace)
	big := graph.Random(500, 2000, 3)
	small := graph.Complete(20)
	bigOrd := core.NewRandomOrder(500, 1)
	smallOrd := core.NewRandomOrder(20, 2)
	wantBig := referenceColoring(big, bigOrd)
	wantSmall := referenceColoring(small, smallOrd)
	for i := 0; i < 3; i++ {
		if got := must(PrefixColoring(context.Background(), big, bigOrd, Options{Options: engine.Options{PrefixFrac: 0.1}, Workspace: ws})); !got.Equal(wantBig) {
			t.Fatalf("run %d big: pooled run differs", i)
		}
		if got := must(PrefixColoring(context.Background(), small, smallOrd, Options{Options: engine.Options{Adaptive: true}, Workspace: ws})); !got.Equal(wantSmall) {
			t.Fatalf("run %d small: pooled run differs", i)
		}
		if got := must(SequentialColoring(context.Background(), big, bigOrd, Options{Workspace: ws})); !got.Equal(wantBig) {
			t.Fatalf("run %d big: pooled sequential run differs", i)
		}
	}
}

// Cancellation aborts within a round with ctx.Err().
func TestPrefixColoringCancel(t *testing.T) {
	g := graph.Random(400, 1600, 9)
	ord := core.NewRandomOrder(400, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrefixColoring(ctx, g, ord, Options{}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := SequentialColoring(ctx, g, ord, Options{}); err != context.Canceled {
		t.Fatalf("sequential: want context.Canceled, got %v", err)
	}
}

// The complete graph needs exactly n colors; a high-color vertex
// exercises the multi-window path of checkFirstFit.
func TestColoringManyColors(t *testing.T) {
	g := graph.Complete(130) // forces colors 0..129: three 64-color windows
	ord := core.NewRandomOrder(130, 17)
	want := referenceColoring(g, ord)
	if want.NumColors != 130 {
		t.Fatalf("complete graph: want 130 colors, got %d", want.NumColors)
	}
	got := must(PrefixColoring(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.3}}))
	if !got.Equal(want) {
		t.Fatal("complete graph: prefix differs from sequential")
	}
}

func BenchmarkPrefixColoring(b *testing.B) {
	g := graph.Random(20000, 100000, 42)
	ord := core.NewRandomOrder(20000, 42)
	ws := new(Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(PrefixColoring(context.Background(), g, ord, Options{Workspace: ws}))
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
