package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/graph"
)

// randomGraphAndOrder builds a deterministic test instance.
func randomGraphAndOrder(n, m int, seed uint64) (*graph.Graph, Order) {
	g := graph.Random(n, m, seed)
	return g, NewRandomOrder(n, seed+1)
}

func TestOrderValidate(t *testing.T) {
	o := NewRandomOrder(100, 3)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Len() != 100 {
		t.Errorf("Len = %d", o.Len())
	}
}

func TestFromOrderRejectsNonPerm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromOrder accepted a non-permutation")
		}
	}()
	FromOrder([]int32{0, 0})
}

func TestSequentialMISSmall(t *testing.T) {
	// Path 0-1-2-3 with identity order: greedy picks 0, skips 1, picks
	// 2, skips 3.
	g := graph.Path(4)
	r := must(SequentialMIS(context.Background(), g, IdentityOrder(4), Options{}))
	want := []graph.Vertex{0, 2}
	if len(r.Set) != 2 || r.Set[0] != want[0] || r.Set[1] != want[1] {
		t.Errorf("Set = %v, want %v", r.Set, want)
	}
	if r.Stats.Rounds != 4 || r.Stats.Attempts != 4 {
		t.Errorf("sequential stats %+v, want rounds=attempts=n", r.Stats)
	}
}

func TestSequentialMISOrderMatters(t *testing.T) {
	// Star: if the center is first it alone is the MIS; otherwise all
	// leaves are.
	g := graph.Star(5)
	centerFirst := must(SequentialMIS(context.Background(), g, IdentityOrder(5), Options{}))
	if centerFirst.Size() != 1 || !centerFirst.InSet[0] {
		t.Errorf("center-first MIS = %v", centerFirst.Set)
	}
	leafFirst := must(SequentialMIS(context.Background(), g, FromOrder([]int32{1, 2, 3, 4, 0}), Options{}))
	if leafFirst.Size() != 4 || leafFirst.InSet[0] {
		t.Errorf("leaf-first MIS = %v", leafFirst.Set)
	}
}

func TestSequentialMISEmptyAndSingleton(t *testing.T) {
	if r := must(SequentialMIS(context.Background(), graph.Empty(0), IdentityOrder(0), Options{})); r.Size() != 0 {
		t.Error("empty graph MIS not empty")
	}
	if r := must(SequentialMIS(context.Background(), graph.Empty(1), IdentityOrder(1), Options{})); r.Size() != 1 {
		t.Error("singleton graph MIS wrong")
	}
	// Edgeless graph: everything is in the MIS.
	if r := must(SequentialMIS(context.Background(), graph.Empty(10), NewRandomOrder(10, 1), Options{})); r.Size() != 10 {
		t.Error("edgeless graph MIS should be all vertices")
	}
}

func TestSequentialMISIsMaximal(t *testing.T) {
	g, ord := randomGraphAndOrder(500, 2500, 7)
	r := must(SequentialMIS(context.Background(), g, ord, Options{}))
	if !IsMaximalIndependentSet(g, r.InSet) {
		t.Error("sequential MIS not maximal independent")
	}
}

func TestSequentialMISPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size mismatch not caught")
		}
	}()
	must(SequentialMIS(context.Background(), graph.Empty(3), IdentityOrder(4), Options{}))
}

// allDeterministicAlgorithms runs every deterministic MIS implementation
// on the instance and returns the results keyed by name.
func allDeterministicAlgorithms(g *graph.Graph, ord Order) map[string]*Result {
	return map[string]*Result{
		"sequential":         must(SequentialMIS(context.Background(), g, ord, Options{})),
		"sequential-parents": must(SequentialMIS(context.Background(), g, ord, Options{Parents: BuildParents(g, ord)})),
		"parallel-full":      must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1}})),
		"rootset":            must(RootSetMIS(context.Background(), g, ord, Options{})),
		"prefix-default":     must(PrefixMIS(context.Background(), g, ord, Options{})),
		"prefix-1":           must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: 1}})),
		"prefix-7":           must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: 7}})),
		"prefix-frac-0.1":    must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.1}})),
		"prefix-pointered":   must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.05}, Pointered: true})),
		"prefix-tiny-grain":  must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.2, Grain: 2}})),
	}
}

// referenceMIS is lexFirstMIS, the vertex-space Algorithm 1 that shares
// no code with the engine adapter, as a Result.
func referenceMIS(g *graph.Graph, ord Order) *Result {
	r := &Result{InSet: lexFirstMIS(g, ord)}
	for v, in := range r.InSet {
		if in {
			r.Set = append(r.Set, graph.Vertex(v))
		}
	}
	return r
}

func TestAllAlgorithmsMatchSequential(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		seed uint64
	}{
		{"random-sparse", graph.Random(300, 900, 1), 10},
		{"random-dense", graph.Random(100, 2000, 2), 11},
		{"rmat", graph.RMat(9, 2000, 3), 12},
		{"grid", graph.Grid2D(17, 19), 13},
		{"complete", graph.Complete(60), 14},
		{"star", graph.Star(80), 15},
		{"path", graph.Path(200), 16},
		{"cycle", graph.Cycle(201), 17},
		{"tree", graph.RandomTree(150, 5), 18},
		{"empty", graph.Empty(50), 19},
		{"bipartite", graph.CompleteBipartite(20, 30), 20},
	}
	for _, c := range cases {
		ord := NewRandomOrder(c.g.NumVertices(), c.seed)
		want := referenceMIS(c.g, ord)
		for name, got := range allDeterministicAlgorithms(c.g, ord) {
			if !got.Equal(want) {
				t.Errorf("%s/%s: set differs from sequential greedy (got %d, want %d vertices)",
					c.name, name, got.Size(), want.Size())
			}
			if err := VerifyLexFirst(c.g, ord, got); err != nil {
				t.Errorf("%s/%s: %v", c.name, name, err)
			}
		}
	}
}

func TestAlgorithmsMatchQuick(t *testing.T) {
	f := func(rawN uint8, rawM uint16, seed uint64) bool {
		n := int(rawN%80) + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := graph.Random(n, m, seed)
		ord := NewRandomOrder(n, seed^0xdead)
		want := referenceMIS(g, ord)
		for _, got := range []*Result{
			must(SequentialMIS(context.Background(), g, ord, Options{})),
			must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1}})),
			must(RootSetMIS(context.Background(), g, ord, Options{})),
			must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: 3}})),
			must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.3}, Pointered: true})),
		} {
			if !got.Equal(want) {
				return false
			}
		}
		return IsMaximalIndependentSet(g, want.InSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismAcrossRepeatedRuns(t *testing.T) {
	g, ord := randomGraphAndOrder(2000, 10000, 99)
	first := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.02}}))
	for trial := 0; trial < 5; trial++ {
		again := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.02}}))
		if !again.Equal(first) {
			t.Fatalf("trial %d: prefix MIS differs across identical runs", trial)
		}
	}
	// Different prefix sizes must also agree (the paper's determinism
	// guarantee covers the whole work/parallelism tradeoff).
	for _, frac := range []float64{0.001, 0.01, 0.5, 1.0} {
		r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: frac}}))
		if !r.Equal(first) {
			t.Fatalf("prefix frac %v changed the result", frac)
		}
	}
}

func TestPrefixSize1IsSequential(t *testing.T) {
	g, ord := randomGraphAndOrder(400, 1200, 3)
	r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: 1}}))
	if r.Stats.Rounds != int64(g.NumVertices()) {
		t.Errorf("prefix-1 rounds = %d, want n = %d", r.Stats.Rounds, g.NumVertices())
	}
	if r.Stats.Attempts != int64(g.NumVertices()) {
		t.Errorf("prefix-1 attempts = %d, want n = %d", r.Stats.Attempts, g.NumVertices())
	}
}

func TestPrefixWorkGrowsWithPrefix(t *testing.T) {
	g, ord := randomGraphAndOrder(3000, 15000, 5)
	small := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: 8}}))
	full := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	if small.Stats.Attempts > full.Stats.Attempts {
		t.Errorf("expected attempts to grow with prefix size: small=%d full=%d",
			small.Stats.Attempts, full.Stats.Attempts)
	}
	if small.Stats.Rounds < full.Stats.Rounds {
		t.Errorf("expected rounds to shrink with prefix size: small=%d full=%d",
			small.Stats.Rounds, full.Stats.Rounds)
	}
}

func TestParallelMISRoundsTrackDependenceLength(t *testing.T) {
	// With the full input as the prefix, the executed round count lies
	// between the dependence length and twice the dependence length
	// plus one: discarded vertices self-discover their MIS neighbor one
	// round after it is admitted (exactly like the PBBS implementation
	// the paper measures), while the idealized Algorithm 2 removes them
	// in the same step. RootSetMIS implements the idealized semantics
	// and is tested for exact equality separately.
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.Random(800, 4000, 8)},
		{"rmat", graph.RMat(9, 1500, 9)},
		{"complete", graph.Complete(50)},
		{"path", graph.Path(300)},
	} {
		ord := NewRandomOrder(c.g.NumVertices(), 31)
		r := must(PrefixMIS(context.Background(), c.g, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
		info := DependenceSteps(c.g, ord)
		if int(r.Stats.Rounds) < info.Steps || int(r.Stats.Rounds) > 2*info.Steps+1 {
			t.Errorf("%s: full-prefix rounds %d outside [depLen, 2*depLen+1] for depLen %d",
				c.name, r.Stats.Rounds, info.Steps)
		}
	}
}

func TestFullPrefixWorkExceedsSequential(t *testing.T) {
	// The paper's Figure 1(a): at the full prefix, total work (attempts)
	// is well above N because blocked vertices retry every round.
	g, ord := randomGraphAndOrder(5000, 25000, 77)
	full := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1}}))
	ratio := float64(full.Stats.Attempts) / float64(g.NumVertices())
	if ratio < 1.5 {
		t.Errorf("full-prefix work/N = %.2f, expected the paper's ~2-3x regime", ratio)
	}
	if ratio > 10 {
		t.Errorf("full-prefix work/N = %.2f, implausibly high", ratio)
	}
}

func TestRootSetStepsEqualDependenceLength(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.Random(500, 2000, 8)},
		{"rmat", graph.RMat(9, 1500, 9)},
		{"grid", graph.Grid2D(20, 20)},
		{"complete", graph.Complete(40)},
		{"path", graph.Path(300)},
	} {
		ord := NewRandomOrder(c.g.NumVertices(), 21)
		r := must(RootSetMIS(context.Background(), c.g, ord, Options{}))
		info := DependenceSteps(c.g, ord)
		if int(r.Stats.Rounds) != info.Steps {
			t.Errorf("%s: rootset steps %d != analyzer dependence length %d",
				c.name, r.Stats.Rounds, info.Steps)
		}
	}
}

func TestDependenceStepsMatchesSequentialSet(t *testing.T) {
	g, ord := randomGraphAndOrder(800, 4000, 33)
	info := DependenceSteps(g, ord)
	want := referenceMIS(g, ord)
	for v := 0; v < g.NumVertices(); v++ {
		if info.InSet[v] != want.InSet[v] {
			t.Fatalf("analyzer and sequential disagree on vertex %d", v)
		}
	}
}

func TestDependenceCompleteGraphIsO1(t *testing.T) {
	// On K_n the dependence length is O(1): the first vertex kills
	// everyone.
	g := graph.Complete(500)
	info := DependenceSteps(g, NewRandomOrder(500, 4))
	if info.Steps != 1 {
		t.Errorf("K_500 dependence length = %d, want 1", info.Steps)
	}
	if lp := LongestPath(g, NewRandomOrder(500, 4)); lp != 500 {
		t.Errorf("K_500 longest path = %d, want 500 (the paper's contrast)", lp)
	}
}

func TestDependencePathIdentityOrderIsWorstCase(t *testing.T) {
	// Path with identity order: vertex 2k waits for 2k-2, giving a
	// dependence chain of about n/2.
	n := 100
	g := graph.Path(n)
	info := DependenceSteps(g, IdentityOrder(n))
	if info.Steps < n/2-1 {
		t.Errorf("identity-order path dependence = %d, want about n/2", info.Steps)
	}
	// Random order drops it to O(log n).
	randInfo := DependenceSteps(g, NewRandomOrder(n, 77))
	if randInfo.Steps >= info.Steps {
		t.Errorf("random order (%d) not better than identity (%d)", randInfo.Steps, info.Steps)
	}
}

func TestDependenceLengthPolylogGrowth(t *testing.T) {
	// Theorem 3.5: dependence length should be O(log^2 n) w.h.p.
	// Empirically for sparse random graphs it is well under
	// 4*log2(n)^2; assert that generous envelope so the test is robust.
	for _, n := range []int{1000, 4000, 16000} {
		g := graph.Random(n, 5*n, uint64(n))
		info := DependenceSteps(g, NewRandomOrder(n, uint64(n)+1))
		log2n := 0
		for v := n; v > 1; v >>= 1 {
			log2n++
		}
		bound := 4 * log2n * log2n
		if info.Steps > bound {
			t.Errorf("n=%d: dependence length %d exceeds envelope %d", n, info.Steps, bound)
		}
	}
}

func TestLongestPathUpperBoundsDependence(t *testing.T) {
	f := func(rawN uint8, rawM uint16, seed uint64) bool {
		n := int(rawN%60) + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := graph.Random(n, m, seed)
		ord := NewRandomOrder(n, seed+5)
		return DependenceSteps(g, ord).Steps <= LongestPath(g, ord)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPrefixLongestPathMonotone(t *testing.T) {
	g, ord := randomGraphAndOrder(1000, 5000, 6)
	prev := 0
	for _, p := range []int{10, 100, 500, 1000} {
		lp := PrefixLongestPath(g, ord, p)
		if lp < prev {
			t.Errorf("prefix longest path decreased: %d at %d", lp, p)
		}
		prev = lp
	}
	if full := PrefixLongestPath(g, ord, 1000); full != LongestPath(g, ord) {
		t.Errorf("full-prefix longest path %d != longest path %d", full, LongestPath(g, ord))
	}
}

func TestMaxDegreeAfterPrefixDecreases(t *testing.T) {
	// Lemma 3.1: after processing an (l/d)-prefix, remaining degrees
	// drop below d. Check the trend on a random graph.
	g, ord := randomGraphAndOrder(4000, 40000, 12)
	d0 := g.MaxDegree()
	dHalf := MaxDegreeAfterPrefix(g, ord, 2000)
	dAll := MaxDegreeAfterPrefix(g, ord, 4000)
	if dHalf >= d0 {
		t.Errorf("degree did not decrease: before=%d after-half=%d", d0, dHalf)
	}
	if dAll != 0 {
		t.Errorf("after processing everything max degree = %d, want 0", dAll)
	}
}

func TestPrefixInternalEdgesSparse(t *testing.T) {
	// Lemma 4.3: a (k/d)-prefix has O(k|P|) internal edges in
	// expectation. With k = 0.5 the internal edge count should be well
	// below |P|.
	n := 10000
	g := graph.Random(n, 5*n, 3) // average degree 10
	ord := NewRandomOrder(n, 4)
	d := g.MaxDegree()
	prefix := n / (2 * d) // k = 1/2
	edges, withInternal := PrefixInternalEdges(g, ord, prefix)
	if edges > int64(prefix) {
		t.Errorf("(1/2d)-prefix has %d internal edges for |P|=%d, want sublinear", edges, prefix)
	}
	if withInternal > 2*int(edges) {
		t.Errorf("vertices with internal edges %d > 2x internal edges %d (Lemma 4.4 violated)",
			withInternal, edges)
	}
}

func TestLubyProducesMaximalIndependentSet(t *testing.T) {
	for _, c := range []*graph.Graph{
		graph.Random(500, 2500, 31),
		graph.RMat(9, 2000, 32),
		graph.Complete(50),
		graph.Star(60),
		graph.Empty(40),
	} {
		r := must(LubyMIS(context.Background(), c, 123, Options{}))
		if !IsMaximalIndependentSet(c, r.InSet) {
			t.Errorf("Luby result not a maximal independent set on %v", c)
		}
	}
}

func TestLubyDeterministicInSeed(t *testing.T) {
	g := graph.Random(600, 3000, 2)
	a := must(LubyMIS(context.Background(), g, 7, Options{}))
	b := must(LubyMIS(context.Background(), g, 7, Options{}))
	if !a.Equal(b) {
		t.Error("Luby not deterministic for a fixed seed")
	}
	c := must(LubyMIS(context.Background(), g, 8, Options{}))
	if a.Equal(c) {
		t.Log("Luby produced identical sets for different seeds (possible but unlikely)")
	}
}

func TestLubyRoundsLogarithmic(t *testing.T) {
	// Luby's algorithm finishes in O(log n) rounds w.h.p.
	g := graph.Random(20000, 100000, 5)
	r := must(LubyMIS(context.Background(), g, 1, Options{}))
	if r.Stats.Rounds > 40 {
		t.Errorf("Luby rounds = %d on n=20000, want O(log n)", r.Stats.Rounds)
	}
}

func TestLubyDoesMoreWorkThanPrefix(t *testing.T) {
	// The paper's practical point: the prefix-based algorithm with a
	// good prefix size performs less work than Luby.
	g, ord := randomGraphAndOrder(20000, 100000, 44)
	luby := must(LubyMIS(context.Background(), g, 3, Options{}))
	pref := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.01}}))
	if luby.Stats.EdgeInspections <= pref.Stats.EdgeInspections {
		t.Errorf("expected Luby (%d inspections) to exceed prefix-based (%d)",
			luby.Stats.EdgeInspections, pref.Stats.EdgeInspections)
	}
}

func TestVerifyLexFirstCatchesWrongSet(t *testing.T) {
	g, ord := randomGraphAndOrder(100, 300, 8)
	r := must(SequentialMIS(context.Background(), g, ord, Options{}))
	// Corrupt: flip one vertex.
	bad := &Result{InSet: append([]bool(nil), r.InSet...), Set: r.Set}
	bad.InSet[ord.Order[0]] = !bad.InSet[ord.Order[0]]
	if err := VerifyLexFirst(g, ord, bad); err == nil {
		t.Error("VerifyLexFirst accepted a corrupted result")
	}
	short := &Result{InSet: make([]bool, 5)}
	if err := VerifyLexFirst(g, ord, short); err == nil {
		t.Error("VerifyLexFirst accepted a short result")
	}
}

func TestIsIndependentSetAndMaximal(t *testing.T) {
	g := graph.Path(4)
	if !IsIndependentSet(g, []bool{true, false, true, false}) {
		t.Error("independent set rejected")
	}
	if IsIndependentSet(g, []bool{true, true, false, false}) {
		t.Error("adjacent pair accepted")
	}
	if IsMaximalIndependentSet(g, []bool{true, false, false, false}) {
		t.Error("non-maximal set accepted")
	}
	if !IsMaximalIndependentSet(g, []bool{false, true, false, true}) {
		t.Error("maximal set rejected")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Rounds: 3, Attempts: 10, EdgeInspections: 20, PrefixSize: 5}
	if s.String() == "" {
		t.Error("empty Stats string")
	}
}

func TestResultSetSorted(t *testing.T) {
	g, ord := randomGraphAndOrder(1000, 4000, 2)
	r := must(PrefixMIS(context.Background(), g, ord, Options{}))
	for i := 1; i < len(r.Set); i++ {
		if r.Set[i-1] >= r.Set[i] {
			t.Fatalf("Set not sorted at %d", i)
		}
	}
	count := 0
	for _, in := range r.InSet {
		if in {
			count++
		}
	}
	if count != r.Size() {
		t.Errorf("InSet count %d != Set size %d", count, r.Size())
	}
}

func BenchmarkSequentialMIS(b *testing.B) {
	g, ord := randomGraphAndOrder(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(SequentialMIS(context.Background(), g, ord, Options{}))
	}
}

func BenchmarkPrefixMIS(b *testing.B) {
	g, ord := randomGraphAndOrder(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.01}}))
	}
}

func BenchmarkRootSetMIS(b *testing.B) {
	g, ord := randomGraphAndOrder(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(RootSetMIS(context.Background(), g, ord, Options{}))
	}
}

func BenchmarkLubyMIS(b *testing.B) {
	g, _ := randomGraphAndOrder(100000, 500000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(LubyMIS(context.Background(), g, uint64(i), Options{}))
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
