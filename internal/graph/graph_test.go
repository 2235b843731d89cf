package graph

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmptyGraph(t *testing.T) {
	g := Empty(0)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("Empty(0) = %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Empty(0).Validate() = %v", err)
	}
	g5 := Empty(5)
	if g5.NumVertices() != 5 || g5.NumEdges() != 0 || g5.MaxDegree() != 0 {
		t.Errorf("Empty(5) wrong: %v", g5)
	}
	if err := g5.Validate(); err != nil {
		t.Errorf("Empty(5).Validate() = %v", err)
	}
}

func TestFromEdgesBasic(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("cycle4: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for v := Vertex(0); v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong on cycle4")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFromEdgesDropsSelfLoopsAndDuplicates(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 0}, {1, 2}, {1, 2}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("m = %d, want 2 after dedup", g.NumEdges())
	}
	if g.HasEdge(0, 0) {
		t.Error("self loop survived")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
}

// TestFromEdgesTable exercises the builder's cleaning and rejection
// paths: duplicates merge, self loops drop, and out-of-range endpoints
// are rejected with an error naming the offending edge index — the
// detail a caller feeding a million-edge list needs to find the bad
// entry.
func TestFromEdgesTable(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		edges   []Edge
		wantM   int    // expected edge count on success
		wantErr string // substring the error must contain; "" means success
	}{
		{"empty", 0, nil, 0, ""},
		{"duplicates both orientations", 3, []Edge{{0, 1}, {1, 0}, {0, 1}}, 1, ""},
		{"self loops dropped", 3, []Edge{{2, 2}, {0, 1}, {1, 1}}, 1, ""},
		{"mixed cleanup", 4, []Edge{{3, 3}, {1, 3}, {3, 1}, {0, 2}}, 2, ""},
		{"out of range names index 0", 2, []Edge{{0, 5}}, 0, "edge 0 ="},
		{"out of range names index 2", 3, []Edge{{0, 1}, {1, 2}, {0, 7}}, 0, "edge 2 ="},
		{"negative endpoint names index 1", 3, []Edge{{0, 1}, {-1, 2}}, 0, "edge 1 ="},
		{"negative n", -1, nil, 0, "negative vertex count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := FromEdges(tc.n, tc.edges)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("accepted, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not name the offender (%q)", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() != tc.wantM {
				t.Fatalf("m = %d, want %d", g.NumEdges(), tc.wantM)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEdgesCanonicalRoundTrip(t *testing.T) {
	g := Random(200, 600, 42)
	edges := g.Edges()
	if len(edges) != 600 {
		t.Fatalf("Edges() returned %d, want 600", len(edges))
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d = %v not canonical", i, e)
		}
		if i > 0 {
			prev := edges[i-1]
			if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
				t.Fatalf("edges not sorted at %d: %v then %v", i, prev, e)
			}
		}
	}
	g2, err := FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip lost edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(Vertex(v)) != g2.Degree(Vertex(v)) {
			t.Fatalf("round trip changed degree of %d", v)
		}
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Error("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{offsets: slices.Clone(g.offsets), adj: slices.Clone(g.adj)}
}

// AvgDegree returns the average vertex degree 2m/n, or 0 for the empty
// graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(g.NumVertices())
}

func TestCloneIndependent(t *testing.T) {
	g := Random(50, 100, 7)
	c := g.Clone()
	coff, _ := c.Raw()
	coff[0] = 999 // corrupt the clone
	goff, _ := g.Raw()
	if goff[0] == 999 {
		t.Error("Clone shares storage with original")
	}
}

func TestRandomGraphProperties(t *testing.T) {
	const n, m = 1000, 5000
	g := Random(n, m, 123)
	if g.NumVertices() != n {
		t.Errorf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != m {
		t.Errorf("m = %d, want %d", g.NumEdges(), m)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Mean degree should be 2m/n = 10.
	if avg := g.AvgDegree(); avg < 9.9 || avg > 10.1 {
		t.Errorf("avg degree = %v, want 10", avg)
	}
}

func TestRandomGraphDeterministicAcrossCalls(t *testing.T) {
	a := Random(500, 2000, 99)
	b := Random(500, 2000, 99)
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("Random not deterministic at edge %d", i)
		}
	}
	c := Random(500, 2000, 100)
	diff := false
	ec := c.Edges()
	for i := range ea {
		if ea[i] != ec[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRandomGraphDense(t *testing.T) {
	// Request every possible edge: must terminate and produce K_n.
	g := Random(30, 30*29/2, 5)
	if g.NumEdges() != 30*29/2 {
		t.Errorf("dense random: m = %d", g.NumEdges())
	}
	if g.MaxDegree() != 29 {
		t.Errorf("dense random: maxdeg = %d", g.MaxDegree())
	}
}

func TestRandomGraphPanicsOnImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Random with too many edges did not panic")
		}
	}()
	Random(4, 100, 1)
}

func TestRMatProperties(t *testing.T) {
	g := RMat(12, 20000, 77)
	if g.NumVertices() != 1<<12 {
		t.Errorf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 20000 {
		t.Errorf("m = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Power-law skew: the max degree should far exceed the mean.
	mean := g.AvgDegree()
	if float64(g.MaxDegree()) < 5*mean {
		t.Errorf("rMat does not look skewed: max=%d mean=%.1f", g.MaxDegree(), mean)
	}
}

func TestRMatDeterministic(t *testing.T) {
	a := RMat(10, 3000, 5)
	b := RMat(10, 3000, 5)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("rMat edge counts differ across identical calls")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("rMat not deterministic at edge %d", i)
		}
	}
}

func TestRMatMoreSkewedThanRandom(t *testing.T) {
	rmat := RMat(13, 40000, 3)
	rand := Random(1<<13, 40000, 3)
	if rmat.MaxDegree() <= rand.MaxDegree() {
		t.Errorf("expected rMat max degree (%d) > random max degree (%d)",
			rmat.MaxDegree(), rand.MaxDegree())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 5)
	if g.NumVertices() != 20 {
		t.Errorf("n = %d", g.NumVertices())
	}
	// Grid edges: 4*(5-1) horizontal + (4-1)*5 vertical = 16+15 = 31.
	if g.NumEdges() != 31 {
		t.Errorf("m = %d, want 31", g.NumEdges())
	}
	if g.MaxDegree() != 4 {
		t.Errorf("maxdeg = %d, want 4", g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTorus2D(t *testing.T) {
	g := Torus2D(4, 5)
	if g.NumEdges() != 40 {
		t.Errorf("torus m = %d, want 40", g.NumEdges())
	}
	for v := 0; v < 20; v++ {
		if g.Degree(Vertex(v)) != 4 {
			t.Fatalf("torus degree(%d) = %d, want 4", v, g.Degree(Vertex(v)))
		}
	}
}

func TestCompleteStarPathCycle(t *testing.T) {
	k := Complete(6)
	if k.NumEdges() != 15 || k.MaxDegree() != 5 {
		t.Errorf("K6: m=%d maxdeg=%d", k.NumEdges(), k.MaxDegree())
	}
	s := Star(10)
	if s.NumEdges() != 9 || s.Degree(0) != 9 || s.Degree(5) != 1 {
		t.Errorf("Star(10) wrong")
	}
	p := Path(5)
	if p.NumEdges() != 4 || p.Degree(0) != 1 || p.Degree(2) != 2 {
		t.Errorf("Path(5) wrong")
	}
	c := Cycle(5)
	if c.NumEdges() != 5 || c.Degree(0) != 2 {
		t.Errorf("Cycle(5) wrong")
	}
	if Cycle(2).NumEdges() != 1 {
		t.Errorf("Cycle(2) should degrade to an edge")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.NumVertices() != 7 || g.NumEdges() != 12 {
		t.Errorf("K(3,4): n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	// No edges within parts.
	for u := Vertex(0); u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			if g.HasEdge(u, v) {
				t.Errorf("edge inside left part: %d-%d", u, v)
			}
		}
	}
}

func TestRandomBipartite(t *testing.T) {
	g := RandomBipartite(50, 60, 400, 11)
	if g.NumVertices() != 110 || g.NumEdges() != 400 {
		t.Errorf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		left := e.U < 50
		right := e.V >= 50
		if !left || !right {
			t.Fatalf("non-bipartite edge %v", e)
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRandomTree(t *testing.T) {
	g := RandomTree(500, 9)
	if g.NumEdges() != 499 {
		t.Errorf("tree m = %d, want 499", g.NumEdges())
	}
	comps, largest := components(g)
	if comps != 1 || largest != 500 {
		t.Errorf("tree components = %d (largest %d), want 1 connected", comps, largest)
	}
}

func TestNearRegular(t *testing.T) {
	g := NearRegular(200, 6, 13)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Stats(g)
	if st.Max > 6 {
		t.Errorf("NearRegular(200, 6) max degree %d > 6", st.Max)
	}
	if st.Mean < 5.0 {
		t.Errorf("NearRegular(200, 6) mean degree %.2f too low", st.Mean)
	}
}

func TestGeneratorsValidateQuick(t *testing.T) {
	f := func(rawN uint8, rawM uint16, seed uint64) bool {
		n := int(rawN%60) + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := Random(n, m, seed)
		return g.Validate() == nil && g.NumEdges() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLineGraphTriangle(t *testing.T) {
	// L(K3) = K3.
	lg, el := LineGraph(Complete(3))
	if lg.NumVertices() != 3 || lg.NumEdges() != 3 {
		t.Errorf("L(K3): n=%d m=%d, want 3 and 3", lg.NumVertices(), lg.NumEdges())
	}
	if el.NumEdges() != 3 {
		t.Errorf("edge list size %d", el.NumEdges())
	}
}

func TestLineGraphPath(t *testing.T) {
	// L(P_n) = P_{n-1}.
	lg, _ := LineGraph(Path(6))
	if lg.NumVertices() != 5 || lg.NumEdges() != 4 {
		t.Errorf("L(P6): n=%d m=%d, want 5 and 4", lg.NumVertices(), lg.NumEdges())
	}
}

func TestLineGraphStar(t *testing.T) {
	// L(K_{1,k}) = K_k.
	lg, _ := LineGraph(Star(5))
	if lg.NumVertices() != 4 || lg.NumEdges() != 6 {
		t.Errorf("L(Star5): n=%d m=%d, want K4", lg.NumVertices(), lg.NumEdges())
	}
}

// TestLineGraphSizeMatches checks L(g)'s size against the closed form:
// m vertices and sum_v C(deg(v), 2) edges, as two edges of a simple
// graph share at most one endpoint.
func TestLineGraphSizeMatches(t *testing.T) {
	g := Random(100, 300, 21)
	lg, _ := LineGraph(g)
	e := 0
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(Vertex(v))
		e += d * (d - 1) / 2
	}
	if lg.NumVertices() != g.NumEdges() || lg.NumEdges() != e {
		t.Errorf("L(g) has (%d,%d), want (%d,%d)", lg.NumVertices(), lg.NumEdges(), g.NumEdges(), e)
	}
}

// TestIncidence checks that BuildIncidence lists each edge at both of
// its endpoints, in increasing id order. On edges gathered into rank
// order, ids are ranks, so the lists are in priority order: the root-set
// matching relies on that.
func TestIncidence(t *testing.T) {
	g := Complete(4)
	el := g.EdgeList()
	inc := BuildIncidence(el)
	for v := Vertex(0); v < 4; v++ {
		if ids := inc.Incident(v); len(ids) != 3 {
			t.Fatalf("vertex %d has %d incident edges, want 3", v, len(ids))
		}
	}
	random := Random(80, 400, 31).EdgeList()
	var gathered []Edge
	random.Edges = random.GatherByRank(&gathered, rng.Perm(random.NumEdges(), 8))
	for _, el := range []EdgeList{el, random} {
		inc := BuildIncidence(el)
		for v := Vertex(0); int(v) < el.N; v++ {
			ids := inc.Incident(v)
			for i, id := range ids {
				if e := el.Edges[id]; e.U != v && e.V != v {
					t.Fatalf("edge %v listed as incident to %d", e, v)
				}
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("vertex %d: incident ids %d then %d, want increasing", v, ids[i-1], id)
				}
			}
		}
	}
}

func TestEdgeListValidate(t *testing.T) {
	good := EdgeList{N: 3, Edges: []Edge{{0, 1}, {1, 2}}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	loop := EdgeList{N: 3, Edges: []Edge{{1, 1}}}
	if err := loop.Validate(); err == nil {
		t.Error("self loop accepted")
	}
	oob := EdgeList{N: 3, Edges: []Edge{{0, 9}}}
	if err := oob.Validate(); err == nil {
		t.Error("out of range accepted")
	}
}

func TestStats(t *testing.T) {
	g := Star(11) // center degree 10, leaves degree 1
	s := Stats(g)
	if s.Max != 10 || s.Min != 1 || s.ConnectedComps != 1 || s.LargestComponent != 11 {
		t.Errorf("star stats wrong: %+v", s)
	}
	if s.DegeneracyEstimate != 1 {
		t.Errorf("star degeneracy = %d, want 1", s.DegeneracyEstimate)
	}
	k := Complete(5)
	ks := Stats(k)
	if ks.DegeneracyEstimate != 4 {
		t.Errorf("K5 degeneracy = %d, want 4", ks.DegeneracyEstimate)
	}
	e := Empty(4)
	es := Stats(e)
	if es.ConnectedComps != 4 || es.IsolatedVertices != 4 {
		t.Errorf("empty stats wrong: %+v", es)
	}
	if Stats(Empty(0)).N != 0 {
		t.Error("Stats on the 0-vertex graph failed")
	}
	_ = s.String() // must not panic
}

func TestComponentsDisconnected(t *testing.T) {
	// Two triangles.
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	c, largest := components(g)
	if c != 2 || largest != 3 {
		t.Errorf("components = %d largest = %d", c, largest)
	}
}

func BenchmarkRandomGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Random(100000, 500000, uint64(i))
	}
}

func BenchmarkRMat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RMat(17, 500000, uint64(i))
	}
}
