package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestDegreeOrderSorted(t *testing.T) {
	g := graph.RMat(8, 1000, 3)
	asc := DegreeOrder(g, true)
	if err := asc.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < asc.Len(); r++ {
		if g.Degree(asc.Order[r-1]) > g.Degree(asc.Order[r]) {
			t.Fatalf("ascending degree order violated at rank %d", r)
		}
	}
	desc := DegreeOrder(g, false)
	for r := 1; r < desc.Len(); r++ {
		if g.Degree(desc.Order[r-1]) < g.Degree(desc.Order[r]) {
			t.Fatalf("descending degree order violated at rank %d", r)
		}
	}
}

func TestDegreeOrderTieBreakDeterministic(t *testing.T) {
	g := graph.Cycle(50) // all degrees equal: order must be identity
	ord := DegreeOrder(g, true)
	for r := 0; r < 50; r++ {
		if ord.Order[r] != int32(r) {
			t.Fatalf("tie-break not by id at rank %d: %d", r, ord.Order[r])
		}
	}
}

func TestBFSOrderIsPermutationAndLayered(t *testing.T) {
	g := graph.Grid2D(10, 10)
	ord := BFSOrder(g, 0)
	if err := ord.Validate(); err != nil {
		t.Fatal(err)
	}
	if !rng.IsPerm(ord.Order) {
		t.Fatal("BFS order not a permutation")
	}
	// In a BFS order from a corner of a grid, a vertex's rank respects
	// its Manhattan distance layer: layer boundaries never interleave.
	dist := func(v int32) int32 { return v/10 + v%10 }
	for r := 1; r < ord.Len(); r++ {
		if dist(ord.Order[r-1]) > dist(ord.Order[r]) {
			t.Fatalf("BFS layering violated at rank %d", r)
		}
	}
}

func TestBFSOrderDisconnected(t *testing.T) {
	// Two triangles: BFS must cover both components.
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}})
	ord := BFSOrder(g, 4)
	if err := ord.Validate(); err != nil {
		t.Fatal(err)
	}
	if ord.Order[0] != 4 {
		t.Errorf("BFS did not start at the requested root: %d", ord.Order[0])
	}
	// Out-of-range root falls back to 0.
	fallback := BFSOrder(g, 99)
	if fallback.Order[0] != 0 {
		t.Errorf("out-of-range root not redirected to 0")
	}
}

func TestReverseInvolution(t *testing.T) {
	ord := NewRandomOrder(100, 5)
	back := Reverse(Reverse(ord))
	for i := range ord.Order {
		if ord.Order[i] != back.Order[i] {
			t.Fatal("Reverse(Reverse) != identity")
		}
	}
	rev := Reverse(ord)
	if rev.Order[0] != ord.Order[99] {
		t.Error("Reverse did not flip the order")
	}
}

func TestStructuredOrdersChangeDependenceLength(t *testing.T) {
	// The empirical content of the P-completeness contrast: on the path
	// graph, the identity order yields Theta(n) dependence length while
	// a random order yields O(log n).
	n := 2000
	p := graph.Path(n)
	identity := DependenceSteps(p, IdentityOrder(n)).Steps
	random := DependenceSteps(p, NewRandomOrder(n, 3)).Steps
	if identity < n/2-1 {
		t.Errorf("identity-order path dependence = %d, want ~n/2", identity)
	}
	if random > 60 {
		t.Errorf("random-order path dependence = %d, want O(log n)", random)
	}
	// Descending degree order on a star resolves in one step (center
	// first kills all leaves).
	s := graph.Star(500)
	if d := DependenceSteps(s, DegreeOrder(s, false)).Steps; d != 1 {
		t.Errorf("star with degree-desc order: dependence = %d, want 1", d)
	}
}

func TestStructuredOrdersStillGiveLexFirstForThatOrder(t *testing.T) {
	// Determinism is per-order: even adversarial orders must be
	// reproduced exactly by the parallel algorithms.
	g := graph.RMat(8, 800, 9)
	for _, ord := range []Order{
		DegreeOrder(g, true),
		DegreeOrder(g, false),
		BFSOrder(g, 0),
		Reverse(NewRandomOrder(g.NumVertices(), 2)),
	} {
		want := referenceMIS(g, ord)
		got := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.1}}))
		if !got.Equal(want) {
			t.Fatal("parallel MIS diverged from sequential under a structured order")
		}
	}
}
