package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// overlay is a mutable view over an immutable base CSR graph: inserted
// edges live in per-vertex sorted delta lists, deleted base edges in
// per-vertex sorted tombstone lists. Both maps are keyed by vertex and
// hold entries only for touched vertices, so overlay memory is
// proportional to the churn since the last compaction, not to n.
//
// Every edge is recorded in both directions (like the CSR itself), so
// churn counts directed entries. Once churn passes the maintainer's
// threshold, compact folds the overlay into a fresh CSR and clears the
// deltas — the classic rebuild schedule that keeps amortized update
// cost constant while neighbor iteration stays O(degree).
type overlay struct {
	base *graph.Graph
	add  map[int32][]int32 // inserted neighbors, sorted ascending
	del  map[int32][]int32 // tombstoned base neighbors, sorted ascending
	n    int
	m    int // current undirected edge count
	// churn counts live directed delta entries (2 per undirected edge).
	churn int
}

func newOverlay(g *graph.Graph) overlay {
	return overlay{
		base: g,
		add:  make(map[int32][]int32),
		del:  make(map[int32][]int32),
		n:    g.NumVertices(),
		m:    g.NumEdges(),
	}
}

// containsSorted reports whether sorted slice s contains x.
func containsSorted(s []int32, x int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// insertSorted inserts u into the sorted delta list of v.
func insertSorted(m map[int32][]int32, v, u int32) {
	s := m[v]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= u })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = u
	m[v] = s
}

// removeSorted removes u from the sorted delta list of v, reporting
// whether it was present.
func removeSorted(m map[int32][]int32, v, u int32) bool {
	s := m[v]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= u })
	if i >= len(s) || s[i] != u {
		return false
	}
	copy(s[i:], s[i+1:])
	s = s[:len(s)-1]
	if len(s) == 0 {
		delete(m, v)
	} else {
		m[v] = s
	}
	return true
}

// hasEdge reports whether {u, v} is present in the overlaid graph.
func (o *overlay) hasEdge(u, v int32) bool {
	if containsSorted(o.add[u], v) {
		return true
	}
	return o.base.HasEdge(u, v) && !containsSorted(o.del[u], v)
}

// degree returns the current degree of v.
func (o *overlay) degree(v int32) int {
	return o.base.Degree(v) - len(o.del[v]) + len(o.add[v])
}

// visit enumerates the current neighbors of v: base neighbors minus
// tombstones (in sorted order), then inserted neighbors (in sorted
// order). visit returning false stops the enumeration.
func (o *overlay) visit(v int32, visit func(u int32) bool) {
	dels := o.del[v]
	di := 0
	for _, u := range o.base.Neighbors(v) {
		for di < len(dels) && dels[di] < u {
			di++
		}
		if di < len(dels) && dels[di] == u {
			continue
		}
		if !visit(u) {
			return
		}
	}
	for _, u := range o.add[v] {
		if !visit(u) {
			return
		}
	}
}

// apply validates batch against the overlaid graph and, when every
// update is valid, applies it and returns the inserted and deleted edge
// counts. The batch is atomic: its first invalid update (ErrBadUpdate)
// rejects it before any edit.
func (o *overlay) apply(batch []Update) (added, removed int, err error) {
	var seen map[uint64]struct{}
	if len(batch) > 1 {
		seen = make(map[uint64]struct{}, len(batch))
	}
	n := int32(o.n)
	for i, up := range batch {
		if up.Op != OpAdd && up.Op != OpDel {
			return 0, 0, fmt.Errorf("%w: update %d has unknown op %d", ErrBadUpdate, i, up.Op)
		}
		if up.U < 0 || up.U >= n || up.V < 0 || up.V >= n {
			return 0, 0, fmt.Errorf("%w: update %d: edge {%d,%d} out of range [0,%d)", ErrBadUpdate, i, up.U, up.V, n)
		}
		if up.U == up.V {
			return 0, 0, fmt.Errorf("%w: update %d: self loop at vertex %d", ErrBadUpdate, i, up.U)
		}
		u, v := canonical(up.U, up.V)
		if seen != nil {
			key := uint64(uint32(u))<<32 | uint64(uint32(v))
			if _, dup := seen[key]; dup {
				return 0, 0, fmt.Errorf("%w: update %d: edge {%d,%d} appears twice in one batch", ErrBadUpdate, i, u, v)
			}
			seen[key] = struct{}{}
		}
		present := o.hasEdge(u, v)
		if up.Op == OpAdd && present {
			return 0, 0, fmt.Errorf("%w: update %d inserts existing edge {%d,%d}", ErrBadUpdate, i, u, v)
		}
		if up.Op == OpDel && !present {
			return 0, 0, fmt.Errorf("%w: update %d deletes missing edge {%d,%d}", ErrBadUpdate, i, u, v)
		}
	}
	for _, up := range batch {
		u, v := canonical(up.U, up.V)
		if up.Op == OpAdd {
			o.addEdge(u, v)
			added++
		} else {
			o.delEdge(u, v)
			removed++
		}
	}
	return added, removed, nil
}

func canonical(u, v graph.Vertex) (graph.Vertex, graph.Vertex) {
	if u > v {
		return v, u
	}
	return u, v
}

// addEdge inserts the (absent, validated) edge {u, v}.
func (o *overlay) addEdge(u, v int32) {
	// Inserting an edge whose base copy is tombstoned resurrects it.
	if removeSorted(o.del, u, v) {
		removeSorted(o.del, v, u)
		o.churn -= 2
	} else {
		insertSorted(o.add, u, v)
		insertSorted(o.add, v, u)
		o.churn += 2
	}
	o.m++
}

// delEdge removes the (present, validated) edge {u, v}.
func (o *overlay) delEdge(u, v int32) {
	if removeSorted(o.add, u, v) {
		removeSorted(o.add, v, u)
		o.churn -= 2
	} else {
		insertSorted(o.del, u, v)
		insertSorted(o.del, v, u)
		o.churn += 2
	}
	o.m--
}

// materialize builds a fresh CSR of the current graph. Neighbor lists
// are emitted as the merge of two sorted sequences, so the result is
// canonical without any re-sort and FromCSRUnchecked applies.
func (o *overlay) materialize() *graph.Graph {
	n := o.n
	counts := make([]int64, n+1)
	parallel.For(n, 2048, func(i int) {
		counts[i] = int64(o.degree(int32(i)))
	})
	offsets := make([]int64, n+1)
	total := parallel.ExclusiveScan(offsets[:n], counts[:n], 2048)
	offsets[n] = total
	adj := make([]graph.Vertex, total)
	parallel.For(n, 512, func(i int) {
		v := int32(i)
		pos := offsets[i]
		adds := o.add[v]
		ai := 0
		o.visitBaseSurvivors(v, func(u int32) {
			for ai < len(adds) && adds[ai] < u {
				adj[pos] = adds[ai]
				pos++
				ai++
			}
			adj[pos] = u
			pos++
		})
		for ; ai < len(adds); ai++ {
			adj[pos] = adds[ai]
			pos++
		}
	})
	return graph.FromCSRUnchecked(offsets, adj)
}

// visitBaseSurvivors enumerates v's base neighbors that are not
// tombstoned, in sorted order.
func (o *overlay) visitBaseSurvivors(v int32, visit func(u int32)) {
	dels := o.del[v]
	di := 0
	for _, u := range o.base.Neighbors(v) {
		for di < len(dels) && dels[di] < u {
			di++
		}
		if di < len(dels) && dels[di] == u {
			continue
		}
		visit(u)
	}
}

// compact folds the overlay into a fresh base CSR and clears the
// deltas.
func (o *overlay) compact() {
	o.base = o.materialize()
	o.add = make(map[int32][]int32)
	o.del = make(map[int32][]int32)
	o.churn = 0
}

// graphView returns the current graph as an immutable *graph.Graph:
// the shared base when no deltas are outstanding, otherwise a fresh
// materialization.
func (o *overlay) graphView() *graph.Graph {
	if o.churn == 0 {
		return o.base
	}
	return o.materialize()
}
