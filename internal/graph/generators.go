package graph

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Random returns a uniform sparse random graph with n vertices and m
// distinct undirected edges (the G(n,m) model). This is the paper's
// first experimental input ("a sparse random graph with 10^7 vertices
// and 5x10^7 edges"), here parameterized so the harness can scale it to
// the host machine. It panics if m exceeds the number of possible edges.
func Random(n, m int, seed uint64) *Graph {
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		panic(fmt.Sprintf("graph: Random(%d, %d) requests more than %d possible edges", n, m, maxEdges))
	}
	if n <= 1 || m == 0 {
		return Empty(n)
	}
	x := rng.NewXoshiro256(seed)
	sample := func(count int, out []uint64) []uint64 {
		for i := 0; i < count; i++ {
			u := x.Int31n(int32(n))
			v := x.Int31n(int32(n))
			for v == u {
				v = x.Int31n(int32(n))
			}
			if u > v {
				u, v = v, u
			}
			out = append(out, uint64(u)*uint64(n)+uint64(v))
		}
		return out
	}
	keys := sample(m, make([]uint64, 0, m+m/16+64))
	keys = dedupSortedKeys(keys)
	for len(keys) < m {
		// Top up the shortfall caused by duplicate samples; for sparse
		// graphs this loop runs once or twice with tiny batches.
		short := m - len(keys)
		keys = sample(2*short+16, keys)
		keys = dedupSortedKeys(keys)
	}
	keys = keys[:m]
	return graphFromKeys(n, keys)
}

func dedupSortedKeys(keys []uint64) []uint64 {
	parallel.SortUint64(keys)
	w := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			keys[w] = k
			w++
		}
	}
	return keys[:w]
}

// graphFromKeys builds a graph from sorted, deduplicated edge keys
// u·n+v with u < v, decoding each key in the degree count and again in
// the scatter. The scatter leaves every adjacency list sorted without a
// sort of its own: vertex x first receives its lower neighbours u, from
// the keys of (u, x) in increasing u, and then its higher ones v, from
// the keys of (x, v) in increasing v.
func graphFromKeys(n int, keys []uint64) *Graph {
	nn := uint64(n)
	offsets := make([]int64, n+1)
	for _, k := range keys {
		offsets[k/nn]++
		offsets[k%nn]++
	}
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 4096)
	offsets[n] = total
	adj := make([]Vertex, total)
	cursor := slices.Clone(offsets[:n])
	for _, k := range keys {
		u, v := Vertex(k/nn), Vertex(k%nn)
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	return &Graph{offsets: offsets, adj: adj}
}

// The rMat quadrant probabilities, those of the PBBS inputs the paper
// measures: top-left rmatA, top-right rmatB, bottom-left rmatC, and
// bottom-right the remaining 0.3. They give the power-law degree
// distribution the paper mentions.
const rmatA, rmatB, rmatC = 0.5, 0.1, 0.1

// RMat returns an rMat graph with 2^logN vertices and m distinct
// undirected edges (self loops and duplicates are discarded and
// resampled), drawn by the R-MAT recursive generator of Chakrabarti,
// Zhan and Faloutsos (SIAM SDM 2004), the paper's second experimental
// input, with the quadrant probabilities rmatA, rmatB and rmatC. The
// generator is fully deterministic in (logN, m, seed): the quadrant
// choices for edge i are drawn from a hash of (seed, i, level), so the
// edge set does not depend on scheduling, and each batch of draws runs
// in parallel over fixed blocks of counters.
func RMat(logN, m int, seed uint64) *Graph {
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
	// Cumulative quadrant thresholds scaled to 2^53 for integer
	// comparison against hash bits, each product rounded down in
	// float64 arithmetic.
	const scale = 1 << 53
	a, b, c := rmatA, rmatB, rmatC
	tA := uint64(a * scale)
	tB := tA + uint64(b*scale)
	tC := tB + uint64(c*scale)

	// drawKey returns the key u·n+v (u < v) of draw i, and false for a
	// self loop. Level l hashes Hash3(seed, i, l), computed as
	// Hash64(pre ^ l) from the draw's prefix pre. The draw takes the
	// top-left quadrant for h < tA, the top-right for h < tB, the
	// bottom-left for h < tC and the bottom-right otherwise, so u's bit
	// is h ≥ tB and v's is set when h passes one or three thresholds.
	drawKey := func(i uint64) (uint64, bool) {
		pre := rng.Hash64(rng.Hash2(seed, i))
		var u, v uint64
		for level := 0; level < logN; level++ {
			h := rng.Hash64(pre^uint64(level)) >> 11 // 53 random bits
			u = u<<1 | bit(h >= tB)
			v = v<<1 | (bit(h >= tA) ^ bit(h >= tB) ^ bit(h >= tC))
		}
		if u > v {
			u, v = v, u
		}
		return u<<uint(logN) | v, u != v
	}

	keys := make([]uint64, 0, m+m/4+64)
	var counter uint64
	for len(keys) < m {
		need := m - len(keys)
		batch := need + need/4 + 64
		// Each block of draws writes its keys at its own offset and
		// records how many it kept; the blocks are then compacted in
		// order, leaving the keys the sequential loop would append.
		base := len(keys)
		keys = slices.Grow(keys, batch)[:base+batch]
		kept := make([]int, (batch+rmatBlock-1)/rmatBlock)
		parallel.ForBlocks(batch, rmatBlock, func(b, lo, hi int) {
			out := keys[base+lo : base+hi]
			w := 0
			for i := lo; i < hi; i++ {
				if k, ok := drawKey(counter + uint64(i)); ok {
					out[w] = k
					w++
				}
			}
			kept[b] = w
		})
		w := base
		for b, k := range kept {
			lo := base + b*rmatBlock
			w += copy(keys[w:], keys[lo:lo+k])
		}
		keys = dedupSortedKeys(keys[:w])
		counter += uint64(batch)
	}
	keys = keys[:m]
	return graphFromKeys(n, keys)
}

// rmatBlock is the number of draws in one block of an rMat batch.
const rmatBlock = 1 << 14

// bit returns 1 for true and 0 for false, without a branch.
func bit(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// Grid2D returns the rows x cols grid graph: vertex r*cols+c is adjacent
// to its horizontal and vertical neighbors. Grids are a standard
// bounded-degree adversarial-structure input for MIS.
func Grid2D(rows, cols int) *Graph {
	edges := make([]Edge, 0, 2*rows*cols)
	id := func(r, c int) Vertex { return Vertex(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	return MustFromEdges(rows*cols, edges)
}

// Torus2D returns the rows x cols torus (grid with wraparound). Every
// vertex has degree exactly 4 when rows, cols >= 3.
func Torus2D(rows, cols int) *Graph {
	edges := make([]Edge, 0, 2*rows*cols)
	id := func(r, c int) Vertex { return Vertex(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges, Edge{U: id(r, c), V: id(r, (c+1)%cols)})
			edges = append(edges, Edge{U: id(r, c), V: id((r+1)%rows, c)})
		}
	}
	return MustFromEdges(rows*cols, edges)
}

// Complete returns the complete graph K_n. The paper uses K_n as the
// example where the longest path in the priority DAG is Omega(n) but the
// dependence length is O(1).
func Complete(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: Vertex(u), V: Vertex(v)})
		}
	}
	return MustFromEdges(n, edges)
}

// Star returns the star K_{1,n-1} with center 0, the extreme
// high-degree-skew input.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{U: 0, V: Vertex(v)})
	}
	return MustFromEdges(n, edges)
}

// Path returns the path 0-1-...-(n-1), the graph whose priority DAG can
// have the longest chains among bounded-degree graphs.
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, Edge{U: Vertex(v), V: Vertex(v + 1)})
	}
	return MustFromEdges(n, edges)
}

// Cycle returns the cycle on n vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		return Path(n)
	}
	edges := make([]Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{U: Vertex(v), V: Vertex((v + 1) % n)})
	}
	return MustFromEdges(n, edges)
}

// CompleteBipartite returns K_{a,b} with parts [0,a) and [a,a+b).
func CompleteBipartite(a, b int) *Graph {
	edges := make([]Edge, 0, a*b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, Edge{U: Vertex(u), V: Vertex(a + v)})
		}
	}
	return MustFromEdges(a+b, edges)
}

// RandomBipartite returns a random bipartite graph with parts of size a
// and b and m distinct edges; useful for the switch-scheduling example
// where maximal matchings drive a crossbar.
func RandomBipartite(a, b, m int, seed uint64) *Graph {
	maxEdges := int64(a) * int64(b)
	if int64(m) > maxEdges {
		panic(fmt.Sprintf("graph: RandomBipartite(%d,%d,%d) exceeds %d possible edges", a, b, m, maxEdges))
	}
	x := rng.NewXoshiro256(seed)
	keys := make([]uint64, 0, m+m/8+16)
	for len(keys) < m {
		need := m - len(keys)
		for i := 0; i < need+need/4+16; i++ {
			u := uint64(x.Intn(a))
			v := uint64(x.Intn(b))
			keys = append(keys, u*uint64(b)+v)
		}
		keys = dedupSortedKeys(keys)
	}
	keys = keys[:m]
	edges := make([]Edge, len(keys))
	for i, k := range keys {
		edges[i] = Edge{U: Vertex(k / uint64(b)), V: Vertex(uint64(a) + k%uint64(b))}
	}
	return MustFromEdges(a+b, edges)
}

// RandomTree returns a uniform-attachment random tree: vertex i >= 1
// attaches to a parent chosen uniformly from [0, i).
func RandomTree(n int, seed uint64) *Graph {
	x := rng.NewXoshiro256(seed)
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		p := Vertex(x.Intn(v))
		edges = append(edges, Edge{U: p, V: Vertex(v)})
	}
	return MustFromEdges(n, edges)
}

// NearRegular returns a graph where every vertex has degree close to d,
// built as the union of ceil(d/2) random Hamiltonian cycles (duplicate
// edges merged, so degrees can fall slightly below d). It approximates a
// random d-regular graph well enough for degree-uniformity experiments;
// it is not a uniform sample from d-regular graphs.
func NearRegular(n, d int, seed uint64) *Graph {
	if d >= n {
		panic(fmt.Sprintf("graph: NearRegular degree %d >= n %d", d, n))
	}
	cycles := (d + 1) / 2
	edges := make([]Edge, 0, cycles*n)
	for c := 0; c < cycles; c++ {
		p := rng.Perm(n, rng.Hash2(seed, uint64(c)))
		for i := 0; i < n; i++ {
			u, v := p[i], p[(i+1)%n]
			if u != v {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return MustFromEdges(n, edges)
}
