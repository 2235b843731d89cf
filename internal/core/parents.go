package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Parents holds, for each vertex, its neighbors that are earlier in the
// priority order (its parents in the priority DAG). The paper's
// linear-work implementation assumes "the neighbors of a vertex have
// been pre-partitioned into their parents (higher priorities) and
// children (lower priorities)"; this structure is that partition. The
// same layout holds the complementary children lists (buildChildren).
//
// The lists depend only on the graph and the order, so a caller that
// solves the same (graph, order) pair repeatedly builds them once and
// passes them through Options.Parents; the prefix-based MIS and the
// greedy coloring then check each vertex by scanning its parents alone.
// The zero value is empty; Build fills it.
type Parents struct {
	offsets []int64
	items   []int32
}

// Of returns v's parents in adjacency (vertex id) order. The slice
// aliases p's storage and must not be modified.
func (p *Parents) Of(v int32) []int32 {
	return p.items[p.offsets[v]:p.offsets[v+1]]
}

// BuildParents returns the parent lists of g under ord, built in
// O(n + m) work.
func BuildParents(g *graph.Graph, ord Order) *Parents {
	p := new(Parents)
	p.Build(g, ord)
	return p
}

// Build recomputes p as the parent lists of g under ord, reusing p's
// buffers when their capacity suffices. Within each list, parents
// appear in adjacency (vertex id) order; the algorithms that use them
// do not require priority order, and keeping adjacency order makes a
// parent scan inspect exactly the neighbors, in exactly the order, that
// a rank-filtered neighbor scan would.
func (p *Parents) Build(g *graph.Graph, ord Order) {
	p.partition(g, ord.Rank, true)
}

// buildChildren builds the child lists (later neighbors), the mirror of
// BuildParents.
func buildChildren(g *graph.Graph, ord Order) *Parents {
	p := new(Parents)
	p.partition(g, ord.Rank, false)
	return p
}

// partition fills p with each vertex's earlier neighbors (parents) or
// later neighbors (!parents): a counting pass, an in-place scan of the
// counts into offsets, and a filling pass.
func (p *Parents) partition(g *graph.Graph, rank []int32, parents bool) {
	n := g.NumVertices()
	if cap(p.offsets) < n+1 {
		p.offsets = make([]int64, n+1)
	}
	p.offsets = p.offsets[:n+1]
	offsets := p.offsets
	parallel.For(n, 1024, func(i int) {
		rv := rank[i]
		c := int64(0)
		for _, u := range g.Neighbors(int32(i)) {
			if (rank[u] < rv) == parents {
				c++
			}
		}
		offsets[i] = c
	})
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 1024)
	offsets[n] = total
	items := Grow32(&p.items, int(total))
	parallel.For(n, 1024, func(i int) {
		rv := rank[i]
		pos := offsets[i]
		for _, u := range g.Neighbors(int32(i)) {
			if (rank[u] < rv) == parents {
				items[pos] = u
				pos++
			}
		}
	})
}
