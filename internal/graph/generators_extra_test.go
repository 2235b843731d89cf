package graph

import "testing"

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.NumVertices() != 16 {
		t.Errorf("Q4 n = %d", g.NumVertices())
	}
	if g.NumEdges() != 32 { // n*d/2 = 16*4/2
		t.Errorf("Q4 m = %d, want 32", g.NumEdges())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(Vertex(v)) != 4 {
			t.Fatalf("Q4 degree(%d) = %d, want 4", v, g.Degree(Vertex(v)))
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if Hypercube(0).NumVertices() != 1 {
		t.Error("Q0 should be a single vertex")
	}
}

func TestHypercubeBipartite(t *testing.T) {
	// Q_d is bipartite by parity of popcount; no edge joins same-parity
	// vertices.
	g := Hypercube(5)
	parity := func(v Vertex) int {
		p := 0
		for x := v; x != 0; x &= x - 1 {
			p ^= 1
		}
		return p
	}
	for _, e := range g.Edges() {
		if parity(e.U) == parity(e.V) {
			t.Fatalf("edge %v joins same-parity vertices", e)
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	// beta=0: pure ring lattice, exactly nk/2 edges, all degree k.
	g := WattsStrogatz(100, 4, 0, 1)
	if g.NumEdges() != 200 {
		t.Errorf("lattice m = %d, want 200", g.NumEdges())
	}
	for v := 0; v < 100; v++ {
		if g.Degree(Vertex(v)) != 4 {
			t.Fatalf("lattice degree(%d) = %d", v, g.Degree(Vertex(v)))
		}
	}
	// beta=0.3: still close to nk/2 edges (duplicates merged), valid.
	r := WattsStrogatz(500, 6, 0.3, 2)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumEdges() < 1400 || r.NumEdges() > 1500 {
		t.Errorf("rewired m = %d, want near 1500", r.NumEdges())
	}
	// Determinism.
	a, b := WattsStrogatz(200, 4, 0.5, 9), WattsStrogatz(200, 4, 0.5, 9)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("WattsStrogatz not deterministic")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("WattsStrogatz not deterministic")
		}
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd k accepted")
		}
	}()
	WattsStrogatz(10, 3, 0.1, 1)
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(2000, 3, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// m = C(k+1,2) + (n-k-1)*k.
	want := 6 + (2000-4)*3
	if g.NumEdges() != want {
		t.Errorf("m = %d, want %d", g.NumEdges(), want)
	}
	// Heavy tail: max degree far above the mean.
	st := Stats(g)
	if float64(st.Max) < 5*st.Mean {
		t.Errorf("BA graph not skewed: max=%d mean=%.1f", st.Max, st.Mean)
	}
	// Connected by construction.
	if st.ConnectedComps != 1 {
		t.Errorf("BA graph has %d components", st.ConnectedComps)
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(300, 2, 5)
	b := BarabasiAlbert(300, 2, 5)
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("BarabasiAlbert not deterministic")
		}
	}
}
