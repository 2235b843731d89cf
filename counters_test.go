package greedy_test

import (
	"context"
	"runtime"
	"testing"

	greedy "repro"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/spanning"
)

// pinnedSystem is a FromSets system with empty, singleton and
// duplicate-member sets and one set far longer than the rest.
func pinnedSystem(t *testing.T) *greedy.System {
	const elems, sets = 3_000, 1_500
	r := rng.NewXoshiro256(5)
	family := make([][]int32, 0, sets+1)
	for i := 0; i < sets; i++ {
		set := make([]int32, r.Intn(9))
		for j := range set {
			set[j] = r.Int31n(elems)
		}
		if len(set) > 2 && i%7 == 0 {
			set[1] = set[0]
		}
		family = append(family, set)
	}
	big := make([]int32, 200)
	for j := range big {
		big[j] = r.Int31n(elems)
	}
	family = append(family, big)
	sys, err := greedy.NewSystem(elems, family)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPinnedCounters pins the machine-independent counters (rounds,
// attempts, inspections, window) of the default prefix plan on one fixed
// input. The counters are a pure function of (input, order, plan), so a
// change to an engine layout or check loop that keeps the results but
// moves the work the paper measures fails here.
func TestPinnedCounters(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(4_000, 20_000, 41)
	el := g.EdgeList()
	s := greedy.NewSolver(greedy.WithSeed(1))
	got := map[string]greedy.Stats{}
	stats := func(name string, st greedy.Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = st
	}
	mis, err := s.MIS(ctx, g)
	stats("mis", mis.Stats, err)
	ptr, err := s.MIS(ctx, g, greedy.WithPointer())
	stats("mis pointered", ptr.Stats, err)
	mm, err := s.MM(ctx, el)
	stats("mm", mm.Stats, err)
	sf, err := s.SF(ctx, el)
	stats("sf", sf.Stats, err)
	strict, err := spanning.PrefixSF(ctx, el, core.NewRandomOrder(el.NumEdges(), 1), spanning.Options{})
	stats("sf strict", strict.Stats, err)
	col, err := s.Coloring(ctx, g)
	stats("coloring", col.Stats, err)
	hs, err := s.HittingSet(ctx, greedy.HittingSystemFromEdges(el))
	stats("hittingset", hs.Stats, err)
	sets, err := s.HittingSet(ctx, pinnedSystem(t))
	stats("hittingset sets", sets.Stats, err)

	want := map[string]greedy.Stats{
		"mis":             {Rounds: 202, Attempts: 4027, EdgeInspections: 9142, PrefixSize: 20},
		"mis pointered":   {Rounds: 203, Attempts: 4056, EdgeInspections: 9108, PrefixSize: 20},
		"mm":              {Rounds: 201, Attempts: 20056, EdgeInspections: 43872, PrefixSize: 100},
		"sf":              {Rounds: 202, Attempts: 20140, EdgeInspections: 40280, PrefixSize: 100},
		"sf strict":       {Rounds: 1564, Attempts: 156318, EdgeInspections: 312636, PrefixSize: 100},
		"coloring":        {Rounds: 205, Attempts: 4093, EdgeInspections: 20350, PrefixSize: 20},
		"hittingset":      {Rounds: 201, Attempts: 4007, EdgeInspections: 7865, PrefixSize: 20},
		"hittingset sets": {Rounds: 201, Attempts: 3006, EdgeInspections: 7012, PrefixSize: 15},
	}
	for name, st := range got {
		if w, ok := want[name]; !ok || st != w {
			t.Errorf("%s: %#v, want %#v", name, st, w)
		}
	}
}

// TestPinnedSequentialCounters pins the counters of AlgoSequential on
// TestPinnedCounters' inputs. The sequential scan decides each item
// once through the decision its problem's prefix Check calls, over the
// same layout, so its EdgeInspections are what that decision reads:
// the parents scanned (MIS, coloring), the earlier members scanned
// (hitting set) and two endpoints or root finds per edge (MM, SF). Each
// sits just under the default prefix plan's pinned count, which makes
// prefix work over sequential work a like-for-like ratio.
func TestPinnedSequentialCounters(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(4_000, 20_000, 41)
	el := g.EdgeList()
	s := greedy.NewSolver(greedy.WithSeed(1), greedy.WithAlgorithm(greedy.AlgoSequential))
	got := map[string]greedy.Stats{}
	stats := func(name string, st greedy.Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = st
	}
	mis, err := s.MIS(ctx, g)
	stats("mis", mis.Stats, err)
	mm, err := s.MM(ctx, el)
	stats("mm", mm.Stats, err)
	sf, err := s.SF(ctx, el)
	stats("sf", sf.Stats, err)
	col, err := s.Coloring(ctx, g)
	stats("coloring", col.Stats, err)
	hs, err := s.HittingSet(ctx, greedy.HittingSystemFromEdges(el))
	stats("hittingset", hs.Stats, err)
	sets, err := s.HittingSet(ctx, pinnedSystem(t))
	stats("hittingset sets", sets.Stats, err)

	want := map[string]greedy.Stats{
		"mis":             {Rounds: 4000, Attempts: 4000, EdgeInspections: 9052},
		"mm":              {Rounds: 20000, Attempts: 20000, EdgeInspections: 40000},
		"sf":              {Rounds: 20000, Attempts: 20000, EdgeInspections: 40000},
		"coloring":        {Rounds: 4000, Attempts: 4000, EdgeInspections: 20000},
		"hittingset":      {Rounds: 4000, Attempts: 4000, EdgeInspections: 7806},
		"hittingset sets": {Rounds: 3000, Attempts: 3000, EdgeInspections: 6980},
	}
	if len(got) != len(want) {
		t.Fatalf("pinned %d runs, want %d", len(got), len(want))
	}
	for name, st := range got {
		if w, ok := want[name]; !ok || st != w {
			t.Errorf("%s: %#v, want %#v", name, st, w)
		}
	}
}

// TestPinnedRootSetCounters pins the counters of the root-set (Lemma
// 5.3) MIS and MM on TestPinnedCounters' input. Its steps scan the
// frontier in parallel, so the test runs at two processors with a grain
// small enough that frontier chunks interleave, and requires every run
// to report the same Stats: which worker reaches a shared edge or
// vertex first must not move the work counted.
func TestPinnedRootSetCounters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	g := greedy.RandomGraph(4_000, 20_000, 41)
	el := g.EdgeList()
	s := greedy.NewSolver(greedy.WithSeed(1), greedy.WithAlgorithm(greedy.AlgoRootSet), greedy.WithGrain(2))
	want := map[string]greedy.Stats{
		"mis": {Rounds: 5, Attempts: 977, EdgeInspections: 23919},
		"mm":  {Rounds: 6, Attempts: 1824, EdgeInspections: 52343},
	}
	for run := 0; run < 5; run++ {
		mis, err := s.MIS(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := s.MM(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]greedy.Stats{"mis": mis.Stats, "mm": mm.Stats} {
			if st != want[name] {
				t.Errorf("run %d: %s: %#v, want %#v", run, name, st, want[name])
			}
		}
	}
}
