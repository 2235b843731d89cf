package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// partitionReference is the two-pass partition the one-pass build must
// reproduce byte for byte: a counting pass, an in-place scan of the
// counts into offsets, and a filling pass, both reading every
// adjacency entry's rank.
func (p *Parents) partitionReference(g *graph.Graph, ord Order, parents bool) {
	n := g.NumVertices()
	rank := ord.Rank
	if cap(p.offsets) < n+1 {
		p.offsets = make([]int64, n+1)
	}
	p.offsets = p.offsets[:n+1]
	offsets := p.offsets
	parallel.For(n, 1024, func(v int) {
		rv := rank[v]
		c := int64(0)
		for _, u := range g.Neighbors(int32(v)) {
			if (rank[u] < rv) == parents {
				c++
			}
		}
		offsets[rv] = c
	})
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 1024)
	offsets[n] = total
	items := engine.Grow32(&p.items, int(total))
	parallel.For(n, 1024, func(v int) {
		rv := rank[v]
		pos := offsets[rv]
		for _, u := range g.Neighbors(int32(v)) {
			if ru := rank[u]; (ru < rv) == parents {
				items[pos] = ru
				pos++
			}
		}
	})
}

// parentsGraphs are the inputs of the parent-list checks: random and
// rMat graphs (the larger ones span many 1024-vertex chunks), a grid,
// a star, and graphs with isolated vertices.
func parentsGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"random":       graph.Random(500, 2000, 1),
		"random-large": graph.Random(1<<14, 5<<14, 2),
		"rmat":         graph.RMat(13, 5<<13, 3),
		"grid":         graph.Grid2D(40, 70),
		"star":         graph.Star(3000),
		"isolated":     graph.Random(4000, 300, 4),
		"empty":        graph.Empty(7),
	}
}

// TestParentsMatchReference checks the one-pass partition against the
// two-pass reference, offsets and items, for the rank-space parents and
// children, at one and two processors. Each
// build reuses buffers of another graph's build, as a Solver's cache
// does.
func TestParentsMatchReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got, want Parents
	var scratch []int32 // reused, stale, across graphs, as RootSetMIS's is
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for gname, g := range parentsGraphs() {
			ord := NewRandomOrder(g.NumVertices(), 9)
			for _, kind := range []struct {
				name    string
				parents bool
			}{
				{"parents", true},
				{"children", false},
			} {
				got.partition(g, ord, kind.parents, &scratch)
				want.partitionReference(g, ord, kind.parents)
				name := fmt.Sprintf("procs=%d/%s/%s", procs, gname, kind.name)
				if !slices.Equal(got.offsets, want.offsets) {
					t.Fatalf("%s: offsets differ from the reference", name)
				}
				if !slices.Equal(got.items, want.items) {
					t.Fatalf("%s: items differ from the reference", name)
				}
			}
		}
	}
}

// BenchmarkBuildParents times the rank-space parent build against the
// two-pass reference on random graphs of 2^15 and 2^19 vertices,
// m = 5n, each iteration under a fresh order.
func BenchmarkBuildParents(b *testing.B) {
	for _, logN := range []int{15, 19} {
		g := graph.Random(1<<logN, 5<<logN, 1)
		ords := []Order{NewRandomOrder(g.NumVertices(), 1), NewRandomOrder(g.NumVertices(), 2)}
		for _, v := range []struct {
			name  string
			build func(*Parents, *graph.Graph, Order)
		}{
			{"one-pass", (*Parents).Build},
			{"reference", func(p *Parents, g *graph.Graph, ord Order) { p.partitionReference(g, ord, true) }},
		} {
			b.Run(fmt.Sprintf("n=2^%d/%s", logN, v.name), func(b *testing.B) {
				var p Parents
				for i := 0; i < b.N; i++ {
					v.build(&p, g, ords[i%2])
				}
			})
		}
	}
}
