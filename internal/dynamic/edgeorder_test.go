package dynamic

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// edgeOrderReference is EdgeOrder as a comparison sort of edge
// identifiers by (priority, U, V): the oracle the bucket sort must
// reproduce permutation for permutation. sort.Slice is not stable, so
// copies of one edge may come out in any identifier order here.
func edgeOrderReference(el graph.EdgeList, seed uint64) core.Order {
	m := el.NumEdges()
	prio := make([]uint64, m)
	for i, e := range el.Edges {
		prio[i] = EdgePriority(e.U, e.V, seed)
	}
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		if prio[a] != prio[b] {
			return prio[a] < prio[b]
		}
		ea, eb := el.Edges[a], el.Edges[b]
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		return ea.V < eb.V
	})
	return core.FromOrder(perm)
}

// stableOrderReference sorts identifiers by (prio, U, V), copies of one
// edge by identifier: orderByPriority's contract, stated as a stable
// comparison sort.
func stableOrderReference(edges []graph.Edge, prio []uint64) []int32 {
	perm := rng.Identity(len(edges))
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		if prio[a] != prio[b] {
			return prio[a] < prio[b]
		}
		ea, eb := edges[a], edges[b]
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		return ea.V < eb.V
	})
	return perm
}

// edgeListVariants returns el's edges in their canonical identifier
// order, shuffled, and shuffled with every third edge given as U > V.
func edgeListVariants(el graph.EdgeList, seed uint64) map[string]graph.EdgeList {
	perm := rng.Perm(el.NumEdges(), seed)
	shuffled := make([]graph.Edge, len(perm))
	flipped := make([]graph.Edge, len(perm))
	for i, id := range perm {
		e := el.Edges[id]
		shuffled[i] = e
		if i%3 == 0 {
			e.U, e.V = e.V, e.U
		}
		flipped[i] = e
	}
	return map[string]graph.EdgeList{
		"canonical": el,
		"shuffled":  {N: el.N, Edges: shuffled},
		"flipped":   {N: el.N, Edges: flipped},
	}
}

// checkOrder fails unless got lays out the same edge sequence as want,
// so that only copies of one edge may trade places, and keeps copies in
// identifier order.
func checkOrder(t testing.TB, edges []graph.Edge, got, want []int32) {
	t.Helper()
	if !rng.IsPerm(got) {
		t.Fatalf("order %v is not a permutation", got)
	}
	for r := range want {
		if got[r] == want[r] {
			continue
		}
		if edges[got[r]] != edges[want[r]] {
			t.Fatalf("rank %d: edge %d %v, want edge %d %v", r, got[r], edges[got[r]], want[r], edges[want[r]])
		}
	}
	for r := 1; r < len(got); r++ {
		if edges[got[r]] == edges[got[r-1]] && got[r] < got[r-1] {
			t.Fatalf("copies of edge %v out of identifier order at rank %d", edges[got[r]], r)
		}
	}
}

// TestEdgeOrderMatchesReference checks the bucket sort against the
// comparison sort on random and rMat edge lists, in canonical and
// shuffled identifier order and with edges given as U > V, at one and
// two processors. The larger lists span several scatter blocks.
func TestEdgeOrderMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":       graph.Random(300, 1500, 1),
		"random-large": graph.Random(1<<13, 5<<13, 2),
		"rmat":         graph.RMat(10, 6000, 3),
		"rmat-large":   graph.RMat(14, 5<<14, 4),
		"single":       graph.Random(2, 1, 5),
		"empty":        graph.Empty(5),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for gname, g := range graphs {
			for vname, el := range edgeListVariants(g.EdgeList(), 6) {
				for _, seed := range []uint64{0, 9} {
					got := EdgeOrder(el, seed)
					want := edgeOrderReference(el, seed)
					name := fmt.Sprintf("procs=%d/%s/%s/seed=%d", procs, gname, vname, seed)
					if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Rank, want.Rank) {
						t.Fatalf("%s: order differs from the reference", name)
					}
				}
			}
		}
	}
}

// TestEdgeOrderTieBreak reaches the comparison past the priority:
// copies of one edge and its reversal share a hashed priority, and
// crafted priorities collide in full or share the prefix the bucket
// sort keys on while differing below it.
func TestEdgeOrderTieBreak(t *testing.T) {
	// {1,2} and {2,1} hash alike: raw U decides, then the identifier.
	el := graph.EdgeList{N: 4, Edges: []graph.Edge{{U: 2, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 3, V: 0}}}
	got := EdgeOrder(el, 5)
	checkOrder(t, el.Edges, got.Order, edgeOrderReference(el, 5).Order)
	if got.Rank[1] > got.Rank[3] || got.Rank[3] > got.Rank[0] || got.Rank[2] > got.Rank[4] {
		t.Fatalf("ties broken out of (U, V, identifier) order: %v", got.Order)
	}

	x := rng.NewXoshiro256(3)
	crafted := []struct {
		name string
		prio func() uint64
	}{
		{"all-equal", func() uint64 { return 1 << 63 }},
		{"low-bits", func() uint64 { return 7<<60 | x.Uint64n(4) }},
		{"one-bucket", func() uint64 { return x.Next() >> 40 }},
		{"few-values", func() uint64 { return x.Uint64n(5) << 58 }},
		{"shared-prefix", func() uint64 { return x.Next()&^(1<<30-1) | x.Uint64n(3) }},
		{"uniform", x.Next},
	}
	for _, c := range crafted {
		for _, m := range []int{1, 17, 300, 40_000} {
			edges := make([]graph.Edge, m)
			prio := make([]uint64, m)
			for i := range edges {
				edges[i] = graph.Edge{U: int32(x.Intn(6)), V: int32(x.Intn(6))}
				prio[i] = c.prio()
			}
			got := orderByPriority(edges, prio)
			want := stableOrderReference(edges, prio)
			if !slices.Equal(got.Order, want) {
				t.Fatalf("%s, m=%d: order differs from the stable reference", c.name, m)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s, m=%d: %v", c.name, m, err)
			}
		}
	}
}

// FuzzEdgeOrder checks EdgeOrder against the comparison sort on edge
// lists decoded from bytes, which may repeat an edge or reverse it, and
// orderByPriority against the stable reference under priorities of a
// few bits, which collide all the time. Run with
// `go test -fuzz=FuzzEdgeOrder ./internal/dynamic`; the seed corpus
// also runs under plain go test.
func FuzzEdgeOrder(f *testing.F) {
	f.Add(uint8(8), uint64(1), uint8(0), []byte{0, 1, 1, 2, 2, 3, 1, 0})
	f.Add(uint8(3), uint64(42), uint8(2), []byte{0, 1, 0, 1, 1, 0, 2, 1})
	f.Add(uint8(200), uint64(7), uint8(63), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(0), uint64(0), uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, rawN uint8, seed uint64, prioBits uint8, raw []byte) {
		n := int(rawN) + 2
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int32(int(raw[i])%n), int32(int(raw[i+1])%n)
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		el := graph.EdgeList{N: n, Edges: edges}
		checkOrder(t, edges, EdgeOrder(el, seed).Order, edgeOrderReference(el, seed).Order)

		// Random values of prioBits%8 bits, shifted to any even height.
		prio := make([]uint64, len(edges))
		x := rng.NewXoshiro256(seed)
		width, shift := uint(prioBits%8), uint(prioBits/8)*2
		for i := range prio {
			prio[i] = x.Uint64n(1<<width) << shift
		}
		if got, want := orderByPriority(edges, prio).Order, stableOrderReference(edges, prio); !slices.Equal(got, want) {
			t.Fatalf("crafted priorities: order %v, want %v", got, want)
		}
	})
}

// BenchmarkEdgeOrder times the bucket sort against the comparison sort
// on random graphs of 2^15 and 2^19 vertices, m = 5n.
func BenchmarkEdgeOrder(b *testing.B) {
	for _, logN := range []int{15, 19} {
		el := graph.Random(1<<logN, 5<<logN, 1).EdgeList()
		b.Run(fmt.Sprintf("n=2^%d/bucket", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EdgeOrder(el, uint64(i))
			}
		})
		b.Run(fmt.Sprintf("n=2^%d/reference", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				edgeOrderReference(el, uint64(i))
			}
		})
	}
}
