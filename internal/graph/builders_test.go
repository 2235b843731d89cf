package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// rmatReference is the sequential rMat generator RMat replaced: each
// level of each draw hashes all of (seed, i, level) anew and picks its
// quadrant by comparisons, and its CSR comes from fromEdgesReference.
// RMat must produce its exact bytes.
func rmatReference(logN, m int, seed uint64) *Graph {
	if logN < 0 || logN > 30 {
		panic(fmt.Sprintf("graph: RMat logN=%d out of range [0,30]", logN))
	}
	n := 1 << uint(logN)
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		panic(fmt.Sprintf("graph: RMat(2^%d, %d) requests more than %d possible edges", logN, m, maxEdges))
	}
	if n <= 1 || m == 0 {
		return Empty(n)
	}
	const scale = 1 << 53
	a, b, c := rmatA, rmatB, rmatC
	tA := uint64(a * scale)
	tB := tA + uint64(b*scale)
	tC := tB + uint64(c*scale)

	drawEdge := func(i uint64) (Vertex, Vertex) {
		var u, v uint32
		for level := 0; level < logN; level++ {
			h := rng.Hash3(seed, i, uint64(level)) >> 11 // 53 random bits
			u <<= 1
			v <<= 1
			switch {
			case h < tA:
				// top-left: both bits 0
			case h < tB:
				v |= 1 // top-right
			case h < tC:
				u |= 1 // bottom-left
			default:
				u |= 1
				v |= 1 // bottom-right
			}
		}
		return Vertex(u), Vertex(v)
	}

	keys := make([]uint64, 0, m+m/4+64)
	var counter uint64
	for len(keys) < m {
		need := m - len(keys)
		batch := need + need/4 + 64
		for i := 0; i < batch; i++ {
			u, v := drawEdge(counter)
			counter++
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			keys = append(keys, uint64(u)*uint64(n)+uint64(v))
		}
		keys = dedupSortedKeys(keys)
	}
	edges := make([]Edge, m)
	for i, k := range keys[:m] {
		edges[i] = Edge{U: Vertex(k / uint64(n)), V: Vertex(k % uint64(n))}
	}
	return fromEdgesReference(n, edges)
}

// sameCSR reports whether two graphs have identical CSR arrays.
func sameCSR(a, b *Graph) bool {
	ao, aa := a.Raw()
	bo, ba := b.Raw()
	return slices.Equal(ao, bo) && slices.Equal(aa, ba)
}

// TestRMatMatchesReference checks RMat against the sequential reference
// byte for byte, at one and two processors. The sizes span one draw
// block and many; the complete graphs (K8, K16, K32) draw more
// duplicates than a first batch covers, so they run top-up batches.
func TestRMatMatchesReference(t *testing.T) {
	type tc struct {
		logN, m int
		seed    uint64
	}
	cases := []tc{
		{0, 0, 1}, {1, 1, 1}, {2, 3, 5},
		{3, 28, 1}, {4, 120, 1}, {5, 496, 9},
		{8, 1000, 2}, {10, 5000, 3}, {12, 20000, 77},
		{14, 5 << 14, 4}, {16, 5 << 16, 1}, {9, 2000, 8},
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			want := rmatReference(c.logN, c.m, c.seed)
			got := RMat(c.logN, c.m, c.seed)
			if !sameCSR(got, want) {
				t.Errorf("GOMAXPROCS=%d RMat(%d, %d, %d) differs from the reference", procs, c.logN, c.m, c.seed)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestGenerateMatchesGenerators checks that Generate builds the CSR of
// Random on n vertices and of RMat on n rounded up to a power of two,
// and that it reports an unknown family, a negative size or too many
// edges for the rounded vertex count as an error.
func TestGenerateMatchesGenerators(t *testing.T) {
	for _, c := range []struct{ n, m, logN int }{{1, 0, 0}, {5, 7, 3}, {8, 28, 3}, {1000, 5000, 10}} {
		g, err := Generate("random", c.n, c.m, 3)
		if err != nil || !sameCSR(g, Random(c.n, c.m, 3)) {
			t.Errorf("Generate(random, %d, %d): err %v, or not Random's graph", c.n, c.m, err)
		}
		g, err = Generate("rmat", c.n, c.m, 3)
		if err != nil || !sameCSR(g, RMat(c.logN, c.m, 3)) {
			t.Errorf("Generate(rmat, %d, %d): err %v, or not RMat(%d)'s graph", c.n, c.m, err, c.logN)
		}
	}
	// rmat with n = 5 draws on 8 vertices, which hold 28 edges.
	if g, err := Generate("rmat", 5, 28, 1); err != nil || g.NumVertices() != 8 || g.NumEdges() != 28 {
		t.Errorf("Generate(rmat, 5, 28): %v, err %v; want K8", g, err)
	}
	for _, c := range []struct {
		family string
		n, m   int
	}{
		{"grid", 10, 10}, {"", 10, 10}, {"random", 5, 11}, {"rmat", 5, 29}, {"random", -1, 0}, {"rmat", 4, -1},
	} {
		if _, err := Generate(c.family, c.n, c.m, 1); err == nil {
			t.Errorf("Generate(%q, %d, %d) returned no error", c.family, c.n, c.m)
		}
	}
}

// FuzzRMat checks RMat against the sequential reference over
// (logN ≤ 12, m, seed), m capped at the number of possible edges and,
// to keep each input fast, at 60,000.
func FuzzRMat(f *testing.F) {
	f.Add(uint8(3), uint32(28), uint64(1))
	f.Add(uint8(10), uint32(5000), uint64(3))
	f.Add(uint8(12), uint32(40000), uint64(2))
	f.Fuzz(func(t *testing.T, rawLogN uint8, rawM uint32, seed uint64) {
		logN := int(rawLogN % 13)
		n := 1 << logN
		maxM := n * (n - 1) / 2
		m := int(rawM) % (min(maxM, 60_000) + 1)
		want := rmatReference(logN, m, seed)
		got := RMat(logN, m, seed)
		if !sameCSR(got, want) {
			t.Fatalf("RMat(%d, %d, %d) differs from the reference", logN, m, seed)
		}
	})
}

// shuffledEdges returns edges in a seeded random order, every other one
// reversed.
func shuffledEdges(edges []Edge, seed uint64) []Edge {
	out := make([]Edge, len(edges))
	for i, p := range rng.Perm(len(edges), seed) {
		e := edges[p]
		if i%2 == 0 {
			e.U, e.V = e.V, e.U
		}
		out[i] = e
	}
	return out
}

// fromEdgesReference is the FromEdges that the key-based one replaced:
// a comparison sort of the canonical edges, a dedup, and a CSR scatter
// whose lists are then sorted one by one. FromEdges must produce its
// exact bytes.
func fromEdgesReference(n int, edges []Edge) *Graph {
	canon := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U != e.V {
			canon = append(canon, e.Canonical())
		}
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		return canon[i].V < canon[j].V
	})
	canon = slices.Compact(canon)
	offsets := make([]int64, n+1)
	for _, e := range canon {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]Vertex, offsets[n])
	cursor := slices.Clone(offsets[:n])
	for _, e := range canon {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	for v := 0; v < n; v++ {
		nbrs := adj[offsets[v]:offsets[v+1]]
		sort.Slice(nbrs, func(a, b int) bool { return nbrs[a] < nbrs[b] })
	}
	return &Graph{offsets: offsets, adj: adj}
}

// TestFromEdgesMatchesReference checks FromEdges against the
// sort-based reference at one and two processors, on edge lists in
// shuffled order and orientation, with duplicates and self loops.
func TestFromEdgesMatchesReference(t *testing.T) {
	inputs := map[string][]Edge{}
	for name, g := range map[string]*Graph{
		"random": Random(3000, 15000, 4), "rmat": RMat(12, 20000, 2),
		"complete": Complete(40), "star": Star(50), "grid": Grid2D(30, 20),
	} {
		edges := shuffledEdges(g.Edges(), 5)
		inputs[name] = edges
		// Every edge again, reversed, and a self loop per tenth edge.
		messy := slices.Clone(edges)
		for i, e := range edges {
			messy = append(messy, Edge{U: e.V, V: e.U})
			if i%10 == 0 {
				messy = append(messy, Edge{U: e.U, V: e.U})
			}
		}
		inputs[name+" messy"] = shuffledEdges(messy, 6)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for name, edges := range inputs {
			n := 0
			for _, e := range edges {
				n = max(n, int(e.U)+1, int(e.V)+1)
			}
			got, err := FromEdges(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCSR(got, fromEdgesReference(n, edges)) {
				t.Errorf("GOMAXPROCS=%d %s: FromEdges differs from the reference", procs, name)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// BenchmarkBuilders times the generators and the edge-list builder at
// 2^15 and 2^19 vertices with m = 5n, the sizes of greedybench's
// serve-mixed and solve workloads. FromEdges gets a random graph's edges
// in shuffled order and orientation.
func BenchmarkBuilders(b *testing.B) {
	for _, logN := range []int{15, 19} {
		n := 1 << logN
		b.Run(fmt.Sprintf("rmat/%d", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = RMat(logN, 5*n, uint64(i))
			}
		})
		b.Run(fmt.Sprintf("random/%d", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Random(n, 5*n, uint64(i))
			}
		})
		b.Run(fmt.Sprintf("fromedges/%d", logN), func(b *testing.B) {
			shuffled := shuffledEdges(Random(n, 5*n, 1).Edges(), 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = MustFromEdges(n, shuffled)
			}
		})
	}
}
