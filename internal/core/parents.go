package core

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Parents holds each vertex's neighbors that are earlier in the
// priority order (its parents in the priority DAG). The paper's
// linear-work implementation assumes "the neighbors of a vertex have
// been pre-partitioned into their parents (higher priorities) and
// children (lower priorities)"; this structure is one side of that
// partition, and the same routine builds the other.
//
// The lists are in rank space, the space every ordered algorithm's
// iterates live in: row r belongs to the vertex of rank r
// (ord.Order[r]) and holds the ranks of its earlier neighbors, so a
// check indexes rank-space state with them directly and the rows of one
// window are adjacent in memory. Within a row, parents appear in
// adjacency (vertex id) order; the algorithms that use them do not
// require priority order, and keeping adjacency order makes a parent
// scan inspect exactly the neighbors, in exactly the order, that a
// rank-filtered neighbor scan would.
//
// The lists depend only on the graph and the order, so a caller that
// solves the same (graph, order) pair repeatedly builds them once and
// passes them through Options.Parents; the prefix-based, sequential and
// root-set MIS and the greedy coloring then check each vertex by
// scanning its parents alone. The zero value is empty; Build fills it.
type Parents struct {
	offsets []int64
	items   []int32
}

// Of returns row i: the ranks of the parents (or, for child lists, the
// children) of the vertex of rank i. The slice aliases p's storage and
// must not be modified.
func (p *Parents) Of(i int32) []int32 {
	return p.items[p.offsets[i]:p.offsets[i+1]]
}

// BuildParents returns the rank-space parent lists of g under ord,
// built in O(n + m) work.
func BuildParents(g *graph.Graph, ord Order) *Parents {
	p := new(Parents)
	p.Build(g, ord)
	return p
}

// Build recomputes p as the rank-space parent lists of g under ord,
// reusing p's buffers when their capacity suffices. The partition's
// adjacency-sized scratch is allocated per call, not pooled with p: a
// cached p is rebuilt once per (graph, seed), and keeping the scratch
// beside it would hold 8m more bytes per Solver (21 MB at 2^19 vertices
// and m = 5n) for that one build.
func (p *Parents) Build(g *graph.Graph, ord Order) {
	p.partition(g, ord, true, new([]int32))
}

// partition fills p with each vertex's earlier neighbors (parents) or
// later neighbors (!parents): vertex v's list goes to row rank[v] and
// holds neighbor ranks. A filtering pass walks the adjacency lists in
// vertex order, reading rank once per entry: it writes each vertex's
// list into the vertex's own slot of a scratch copy of the adjacency
// array (grown in *buf), where it always fits, and records the list's
// length at its row. An in-place scan turns the lengths into offsets,
// and a copying pass moves each list to its row. Writing the rows out
// of order costs one scattered row per vertex, far less than reading
// the adjacency lists in rank order would.
func (p *Parents) partition(g *graph.Graph, ord Order, parents bool, buf *[]int32) {
	n := g.NumVertices()
	rank := ord.Rank
	adjOff, adj := g.Raw()
	if cap(p.offsets) < n+1 {
		p.offsets = make([]int64, n+1)
	}
	p.offsets = p.offsets[:n+1]
	offsets := p.offsets
	scratch := engine.Grow32(buf, len(adj))
	parallel.ForRange(n, 1024, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			rv := rank[v]
			nbrs := adj[adjOff[v]:adjOff[v+1]]
			dst := scratch[adjOff[v]:adjOff[v+1]]
			w := 0
			for _, u := range nbrs {
				ru := rank[u]
				// Write every entry and advance past the kept ones; w
				// never passes the entry's index, so the write stays in
				// the vertex's slot.
				dst[w] = ru
				if (ru < rv) == parents {
					w++
				}
			}
			offsets[rv] = int64(w)
		}
	})
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 1024)
	offsets[n] = total
	items := engine.Grow32(&p.items, int(total))
	parallel.ForRange(n, 1024, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			r := rank[v]
			copy(items[offsets[r]:offsets[r+1]], scratch[adjOff[v]:])
		}
	})
}
