package setcover

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// fromEdgesReference is the sequential FromEdges that FromEdges
// replaced, with its own count-and-scatter for the element side.
// FromEdges must reproduce its arrays byte for byte.
func fromEdgesReference(el graph.EdgeList) *System {
	m := el.NumEdges()
	s := &System{
		numElements: el.N,
		numSets:     m,
		elemOff:     make([]int64, el.N+1),
		setOff:      make([]int64, m+1),
		setElems:    make([]int32, 2*m),
		elemSets:    make([]int32, 2*m),
	}
	for _, e := range el.Edges {
		s.elemOff[e.U+1]++
		s.elemOff[e.V+1]++
	}
	for v := 0; v < el.N; v++ {
		s.elemOff[v+1] += s.elemOff[v]
	}
	cursor := make([]int64, el.N)
	for i, e := range el.Edges {
		s.setOff[i+1] = int64(2 * (i + 1))
		s.setElems[2*i] = e.U
		s.setElems[2*i+1] = e.V
		s.elemSets[s.elemOff[e.U]+cursor[e.U]] = int32(i)
		cursor[e.U]++
		s.elemSets[s.elemOff[e.V]+cursor[e.V]] = int32(i)
		cursor[e.V]++
	}
	return s
}

// TestFromEdgesMatchesReference checks FromEdges against the
// sequential reference, array by array, at one and two processors, on
// graphs with isolated vertices, hubs and no edges, and on an edge list
// in no particular order.
func TestFromEdgesMatchesReference(t *testing.T) {
	shuffled := graph.EdgeList{N: 9, Edges: []graph.Edge{{U: 7, V: 2}, {U: 0, V: 8}, {U: 3, V: 1}, {U: 2, V: 5}, {U: 8, V: 3}}}
	lists := map[string]graph.EdgeList{
		"random":    graph.Random(3000, 12000, 4).EdgeList(),
		"rmat":      graph.RMat(14, 5<<14, 2).EdgeList(),
		"grid":      graph.Grid2D(40, 50).EdgeList(),
		"star":      graph.Star(5000).EdgeList(),
		"isolated":  graph.Random(200, 150, 6).EdgeList(),
		"no edges":  graph.Empty(7).EdgeList(),
		"empty":     graph.Empty(0).EdgeList(),
		"unordered": shuffled,
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for name, el := range lists {
			got, want := FromEdges(el), fromEdgesReference(el)
			if got.numElements != want.numElements || got.numSets != want.numSets ||
				!slices.Equal(got.elemOff, want.elemOff) || !slices.Equal(got.elemSets, want.elemSets) ||
				!slices.Equal(got.setOff, want.setOff) || !slices.Equal(got.setElems, want.setElems) {
				t.Errorf("GOMAXPROCS=%d %s: FromEdges differs from the reference", procs, name)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// BenchmarkFromEdges times the vertex-cover system of a random graph
// with 2^15 and 2^19 vertices and m = 5n.
func BenchmarkFromEdges(b *testing.B) {
	for _, logN := range []int{15, 19} {
		el := graph.Random(1<<logN, 5<<logN, 1).EdgeList()
		b.Run(fmt.Sprint(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = FromEdges(el)
			}
		})
	}
}
