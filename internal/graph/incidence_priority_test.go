package graph

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/rng"
)

func incidenceEqual(a, b Incidence) bool {
	if len(a.Offsets) != len(b.Offsets) || len(a.EdgeIDs) != len(b.EdgeIDs) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != b.EdgeIDs[i] {
			return false
		}
	}
	return true
}

// SortIncidenceByPriority reorders every per-vertex incident edge list
// so that edges appear in increasing rank (highest priority first).
// rank[e] is the priority rank of edge e: smaller is earlier. Each list
// is sorted on its own by comparisons; it is the reference that
// BuildIncidenceByPriority's bucket sort must reproduce.
func SortIncidenceByPriority(inc Incidence, rank []int32) {
	n := len(inc.Offsets) - 1
	parallel.For(n, 256, func(v int) {
		lst := inc.EdgeIDs[inc.Offsets[v]:inc.Offsets[v+1]]
		// Insertion sort for short lists, otherwise a simple quicksort;
		// per-vertex lists in sparse graphs are nearly always short.
		sortEdgeIDsByRank(lst, rank)
	})
}

func sortEdgeIDsByRank(lst []EdgeID, rank []int32) {
	if len(lst) < 24 {
		for i := 1; i < len(lst); i++ {
			e := lst[i]
			j := i - 1
			for j >= 0 && rank[lst[j]] > rank[e] {
				lst[j+1] = lst[j]
				j--
			}
			lst[j+1] = e
		}
		return
	}
	// Median-of-three quicksort on ranks.
	lo, hi := 0, len(lst)-1
	mid := (lo + hi) / 2
	if rank[lst[mid]] < rank[lst[lo]] {
		lst[mid], lst[lo] = lst[lo], lst[mid]
	}
	if rank[lst[hi]] < rank[lst[lo]] {
		lst[hi], lst[lo] = lst[lo], lst[hi]
	}
	if rank[lst[hi]] < rank[lst[mid]] {
		lst[hi], lst[mid] = lst[mid], lst[hi]
	}
	pivot := rank[lst[mid]]
	i, j := lo, hi
	for i <= j {
		for rank[lst[i]] < pivot {
			i++
		}
		for rank[lst[j]] > pivot {
			j--
		}
		if i <= j {
			lst[i], lst[j] = lst[j], lst[i]
			i++
			j--
		}
	}
	sortEdgeIDsByRank(lst[:j+1], rank)
	sortEdgeIDsByRank(lst[i:], rank)
}

func TestBuildIncidenceByPriorityMatchesSorting(t *testing.T) {
	for _, g := range []*Graph{
		Random(100, 400, 1),
		Complete(20),
		Star(30),
		Grid2D(8, 9),
		Empty(10),
	} {
		el := g.EdgeList()
		order := rng.Perm(el.NumEdges(), 7)
		rank := rng.InversePerm(order)

		bucketed := BuildIncidenceByPriority(el, order)
		sorted := BuildIncidence(el)
		SortIncidenceByPriority(sorted, rank)
		if !incidenceEqual(bucketed, sorted) {
			t.Errorf("bucket-sorted incidence differs from comparison-sorted on %v", g)
		}
	}
}

func TestBuildIncidenceByPriorityQuick(t *testing.T) {
	f := func(rawN uint8, rawM uint16, seed uint64) bool {
		n := int(rawN%50) + 2
		maxM := n * (n - 1) / 2
		m := int(rawM) % (maxM + 1)
		g := Random(n, m, seed)
		el := g.EdgeList()
		order := rng.Perm(el.NumEdges(), seed+1)
		rank := rng.InversePerm(order)
		inc := BuildIncidenceByPriority(el, order)
		// Every list sorted by rank, and every edge present at both
		// endpoints exactly once.
		seen := make([]int, el.NumEdges())
		for v := 0; v < n; v++ {
			ids := inc.Incident(Vertex(v))
			for i, e := range ids {
				seen[e]++
				edge := el.Edges[e]
				if edge.U != Vertex(v) && edge.V != Vertex(v) {
					return false
				}
				if i > 0 && rank[ids[i-1]] > rank[e] {
					return false
				}
			}
		}
		for _, c := range seen {
			if c != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReadAutoAllFormats(t *testing.T) {
	g := Random(80, 240, 5)
	writers := map[string]func(*Graph, *bytes.Buffer) error{
		"adjacency": func(g *Graph, buf *bytes.Buffer) error { return WriteAdjacency(buf, g) },
		"edges":     func(g *Graph, buf *bytes.Buffer) error { return WriteEdgeArray(buf, g) },
		"binary":    func(g *Graph, buf *bytes.Buffer) error { return WriteBinary(buf, g) },
	}
	for name, w := range writers {
		var buf bytes.Buffer
		if err := w(g, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			t.Fatalf("%s: ReadAuto: %v", name, err)
		}
		graphsEqual(t, g, got)
	}
}

// ReadAuto's rejection of malformed input is covered in
// readauto_test.go, which also asserts the error wraps
// ErrUnknownFormat.
