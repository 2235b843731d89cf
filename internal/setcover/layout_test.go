package setcover

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// buildReference is the two-pass Layout.Build the one-pass build must
// reproduce byte for byte: a counting pass, an in-place scan of the
// counts into offsets, and a filling pass, both emitting every row.
func (l *Layout) buildReference(s *System, ord core.Order) {
	n := s.NumElements()
	if cap(l.offsets) < n+1 {
		l.offsets = make([]int64, n+1)
	}
	l.offsets = l.offsets[:n+1]
	offsets := l.offsets
	rank := ord.Rank
	parallel.For(n, 1024, func(e int) {
		offsets[rank[e]] = int64(emitRowReference(s, rank, int32(e), nil))
	})
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 1024)
	offsets[n] = total
	words := engine.Grow32(&l.words, int(total))
	parallel.For(n, 1024, func(e int) {
		r := rank[e]
		emitRowReference(s, rank, int32(e), words[offsets[r]:offsets[r+1]])
	})
}

// emitRowReference writes element e's row into dst and returns its
// length in words; with dst nil it only counts.
func emitRowReference(s *System, rank []int32, e int32, dst []int32) int {
	r := rank[e]
	w := 0
	for _, id := range s.SetsOf(e) {
		elems := s.ElemsOf(id)
		if len(elems) > inlineMax {
			if dst != nil {
				dst[w] = -id - 1
			}
			w++
			continue
		}
		head := w
		w++
		for _, x := range elems {
			if rx := rank[x]; rx < r {
				if dst != nil {
					dst[w] = rx
				}
				w++
			}
		}
		if dst != nil {
			dst[head] = int32(w - head - 1)
		}
		if w == head+1 {
			break // an empty group decides the element
		}
	}
	return w
}

// layoutSystems are the inputs of the layout check: the vertex-cover
// systems of random, rMat and grid graphs (the larger ones span many
// blocks), a graph with isolated vertices, and random systems with
// empty sets, repeated members and sets above inlineMax.
func layoutSystems() map[string]*System {
	return map[string]*System{
		"random":       FromEdges(graph.Random(500, 2000, 1).EdgeList()),
		"random-large": FromEdges(graph.Random(1<<14, 5<<14, 2).EdgeList()),
		"rmat":         FromEdges(graph.RMat(13, 5<<13, 3).EdgeList()),
		"grid":         FromEdges(graph.Grid2D(40, 70).EdgeList()),
		"isolated":     FromEdges(graph.Random(4000, 300, 4).EdgeList()),
		"mixed":        randomSystem(3000, 2000, 3*inlineMax, 5),
		"wide":         randomSystem(200, 40, 30, 7),
		"emptysets":    MustFromSets(50, [][]int32{{}, {3, 4}, {}, {10}}),
		"duplicates":   MustFromSets(8, [][]int32{{1, 1, 2}, {2, 2}, {0, 7, 7}}),
		"nosets":       MustFromSets(64, nil),
		"noelements":   MustFromSets(0, [][]int32{{}}),
	}
}

// TestLayoutMatchesReference checks the one-pass build against the
// two-pass reference, offsets and words, at one and two processors.
// Each build reuses buffers of another system's build, as a Solver's
// cache does.
func TestLayoutMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got, want Layout
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for name, s := range layoutSystems() {
			for _, seed := range []uint64{3, 8} {
				ord := core.NewRandomOrder(s.NumElements(), seed)
				got.Build(s, ord)
				want.buildReference(s, ord)
				label := fmt.Sprintf("procs=%d/%s/seed=%d", procs, name, seed)
				if !slices.Equal(got.offsets, want.offsets) {
					t.Fatalf("%s: offsets differ from the reference", label)
				}
				if !slices.Equal(got.words, want.words) {
					t.Fatalf("%s: words differ from the reference", label)
				}
			}
		}
	}
}

// BenchmarkBuildLayout times the hitting-set layout build against the
// two-pass reference on the vertex-cover systems of random graphs of
// 2^15 and 2^19 vertices, m = 5n, each iteration under a fresh order.
func BenchmarkBuildLayout(b *testing.B) {
	for _, logN := range []int{15, 19} {
		s := FromEdges(graph.Random(1<<logN, 5<<logN, 1).EdgeList())
		ords := []core.Order{core.NewRandomOrder(s.NumElements(), 1), core.NewRandomOrder(s.NumElements(), 2)}
		for _, v := range []struct {
			name  string
			build func(*Layout, *System, core.Order)
		}{
			{"one-pass", (*Layout).Build},
			{"reference", (*Layout).buildReference},
		} {
			b.Run(fmt.Sprintf("n=2^%d/%s", logN, v.name), func(b *testing.B) {
				var l Layout
				for i := 0; i < b.N; i++ {
					v.build(&l, s, ords[i%2])
				}
			})
		}
	}
}
