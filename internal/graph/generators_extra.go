package graph

import (
	"fmt"

	"repro/internal/rng"
)

// This file adds graph families beyond the paper's two experimental
// inputs. They broaden the dependence-length study (the paper's bound
// holds for ANY graph under a random order, so a reproduction should
// check structurally diverse inputs) and give the examples realistic
// workloads.

// Hypercube returns the d-dimensional hypercube Q_d: 2^d vertices, two
// vertices adjacent when their ids differ in exactly one bit. Regular
// of degree d with logarithmic diameter.
func Hypercube(d int) *Graph {
	if d < 0 || d > 27 {
		panic(fmt.Sprintf("graph: Hypercube dimension %d out of range [0,27]", d))
	}
	n := 1 << uint(d)
	edges := make([]Edge, 0, n*d/2)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << uint(b))
			if v < u {
				edges = append(edges, Edge{U: Vertex(v), V: Vertex(u)})
			}
		}
	}
	return MustFromEdges(n, edges)
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors (k even), with each edge
// rewired to a random endpoint with probability beta. beta=0 is the
// pure lattice (long dependence chains under bad orders), beta=1 is
// near-random.
func WattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	if k%2 != 0 || k < 2 || k >= n {
		panic(fmt.Sprintf("graph: WattsStrogatz requires even 2 <= k < n, got k=%d n=%d", k, n))
	}
	x := rng.NewXoshiro256(seed)
	edges := make([]Edge, 0, n*k/2)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			u := (v + j) % n
			if x.Float64() < beta {
				// Rewire the far endpoint to a uniform non-self vertex;
				// duplicates are merged by the builder, which slightly
				// reduces m exactly as in the standard construction.
				u = x.Intn(n)
				for u == v {
					u = x.Intn(n)
				}
			}
			edges = append(edges, Edge{U: Vertex(v), V: Vertex(u)})
		}
	}
	return MustFromEdges(n, edges)
}

// BarabasiAlbert returns a preferential-attachment graph: vertices
// arrive one at a time and attach k edges to existing vertices chosen
// proportionally to their current degree (via the repeated-endpoints
// trick: sampling a uniform endpoint of a uniform existing edge).
// Produces the heavy-tailed degree distributions of web-like graphs —
// an independent power-law family to contrast with rMat.
func BarabasiAlbert(n, k int, seed uint64) *Graph {
	if k < 1 || k >= n {
		panic(fmt.Sprintf("graph: BarabasiAlbert requires 1 <= k < n, got k=%d n=%d", k, n))
	}
	x := rng.NewXoshiro256(seed)
	// endpoint multiset: each edge contributes both endpoints, so a
	// uniform sample from it is degree-proportional.
	endpoints := make([]Vertex, 0, 2*n*k)
	edges := make([]Edge, 0, n*k)
	// Seed clique on the first k+1 vertices.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			edges = append(edges, Edge{U: Vertex(u), V: Vertex(v)})
			endpoints = append(endpoints, Vertex(u), Vertex(v))
		}
	}
	chosen := make([]Vertex, 0, k)
	for v := k + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			t := endpoints[x.Intn(len(endpoints))]
			if int(t) == v {
				continue
			}
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, Edge{U: Vertex(v), V: t})
			endpoints = append(endpoints, Vertex(v), t)
		}
	}
	return MustFromEdges(n, edges)
}
