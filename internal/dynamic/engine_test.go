package dynamic

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// misAnswer is the from-scratch sequential MIS membership of g under
// ord.
func misAnswer(g *graph.Graph, ord core.Order) []bool {
	return must(core.SequentialMIS(context.Background(), g, ord, core.Options{})).InSet
}

// mmAnswer is the set of edges the from-scratch sequential matching of
// g under EdgeOrder(seed) takes.
func mmAnswer(g *graph.Graph, seed uint64) map[graph.Edge]bool {
	el := g.EdgeList()
	res := must(matching.SequentialMM(context.Background(), el, EdgeOrder(el, seed), matching.Options{}))
	matched := make(map[graph.Edge]bool, len(res.Pairs))
	for _, e := range res.Pairs {
		matched[e] = true
	}
	return matched
}

// downstreamCone returns the number of items reachable from seeds by a
// breadth-first search that follows later(x) from each item x: the
// region a repair may have to re-decide.
func downstreamCone(n int, seeds []int32, later func(x int32, visit func(y int32))) int {
	seen := make([]bool, n)
	var queue []int32
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for i := 0; i < len(queue); i++ {
		later(queue[i], func(y int32) {
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		})
	}
	return len(queue)
}

// misCone is the downstream cone of seeds in g under ord: vertices
// reachable along edges to later-ranked neighbors.
func misCone(g *graph.Graph, ord core.Order, seeds []int32) int {
	return downstreamCone(g.NumVertices(), seeds, func(v int32, visit func(int32)) {
		for _, u := range g.Neighbors(v) {
			if ord.Rank[u] > ord.Rank[v] {
				visit(u)
			}
		}
	})
}

// checkCost checks that c.Changed equals the number of items whose
// sequential answer differs between the two versions, and that c.Visited
// lies between that number and the size of the seeds' downstream cone.
func checkCost(t *testing.T, label string, c RepairCost, changed, cone int) {
	t.Helper()
	if c.Changed != changed {
		t.Fatalf("%s: changed %d, but %d items' sequential answers differ", label, c.Changed, changed)
	}
	if c.Visited < c.Changed || c.Visited > cone {
		t.Fatalf("%s: visited %d outside [changed %d, downstream cone %d]", label, c.Visited, c.Changed, cone)
	}
}

// checkMISCost checks the MIS counters of one Apply of batch, which took
// the graph to g, against references that share no code with the
// repair: before and after are the sequential answers on the two
// versions, and Seeds must count the updates whose earlier endpoint was
// in the MIS before the batch.
func checkMISCost(t *testing.T, label string, before, after []bool, g *graph.Graph, ord core.Order, batch []Update, c RepairCost) {
	t.Helper()
	var seeds []int32
	for _, up := range batch {
		x, w := up.U, up.V
		if ord.Rank[x] > ord.Rank[w] {
			x, w = w, x
		}
		if before[x] {
			seeds = append(seeds, w)
		}
	}
	if c.Seeds != len(seeds) {
		t.Fatalf("%s mis: seeds %d, the seeding rule gives %d", label, c.Seeds, len(seeds))
	}
	changed := 0
	for v := range after {
		if after[v] != before[v] {
			changed++
		}
	}
	checkCost(t, label+" mis", c, changed, misCone(g, ord, seeds))
}

// edgeLess is the total priority order on canonical edges that
// EdgeOrder sorts by.
func edgeLess(a, b graph.Edge, seed uint64) bool {
	pa, pb := EdgePriority(a.U, a.V, seed), EdgePriority(b.U, b.V, seed)
	if pa != pb {
		return pa < pb
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// checkMMCost is checkMISCost for the matching. An edge absent from a
// version counts as unmatched there, and the cone starts from the
// inserted edges and the later edges adjacent to each deleted matched
// edge.
func checkMMCost(t *testing.T, label string, before, after map[graph.Edge]bool, g *graph.Graph, seed uint64, batch []Update, c RepairCost) {
	t.Helper()
	el := g.EdgeList()
	id := make(map[graph.Edge]int32, len(el.Edges))
	inc := make([][]int32, el.N)
	changed := 0
	for i, e := range el.Edges {
		id[e] = int32(i)
		inc[e.U] = append(inc[e.U], int32(i))
		inc[e.V] = append(inc[e.V], int32(i))
		if after[e] != before[e] {
			changed++
		}
	}
	var seeds []int32
	for _, up := range batch {
		u, v := canonical(up.U, up.V)
		e := graph.Edge{U: u, V: v}
		if up.Op == OpAdd {
			seeds = append(seeds, id[e])
			continue
		}
		if !before[e] {
			continue
		}
		for _, x := range [2]int32{u, v} {
			for _, f := range inc[x] {
				if edgeLess(e, el.Edges[f], seed) {
					seeds = append(seeds, f)
				}
			}
		}
	}
	cone := downstreamCone(len(el.Edges), seeds, func(e int32, visit func(int32)) {
		for _, x := range [2]int32{el.Edges[e].U, el.Edges[e].V} {
			for _, f := range inc[x] {
				if edgeLess(el.Edges[e], el.Edges[f], seed) {
					visit(f)
				}
			}
		}
	})
	checkCost(t, label+" mm", c, changed, cone)
}

// TestEngineDifferential checks the repair counters of every Apply over
// every graph family against the references of checkMISCost and
// checkMMCost, and the answers against from-scratch sequential runs.
func TestEngineDifferential(t *testing.T) {
	ctx := context.Background()
	for name, g := range families(t) {
		t.Run(name, func(t *testing.T) {
			const seed = 13
			b, err := newBoth(ctx, g, seed)
			if err != nil {
				t.Fatal(err)
			}
			ord := b.mis.mis.ord
			mis, mm := misAnswer(g, ord), mmAnswer(g, seed)
			x := rng.NewXoshiro256(31)
			for step, k := range []int{1, 1, 3, 9, 1, 40, 2, 1} {
				batch := randomBatch(x, b.mis, k)
				st, err := b.apply(ctx, batch)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				b.verify(t, seed)
				after := b.mis.Graph()
				label := fmt.Sprintf("step %d", step)
				nextMIS, nextMM := misAnswer(after, ord), mmAnswer(after, seed)
				checkMISCost(t, label, mis, nextMIS, after, ord, batch, st.MIS)
				checkMMCost(t, label, mm, nextMM, after, seed, batch, st.MM)
				mis, mm = nextMIS, nextMM
			}
		})
	}
}

// TestFrontierHubTermination is the frontier's central property in
// miniature: a high-degree vertex whose own decision is unaffected
// terminates propagation on the spot, although its downstream cone
// holds its entire fan-out.
//
// Identity order over: 0 and 2 in the MIS, hub 3 ruled out by both,
// leaves 4..23 hanging off the hub (all in the MIS). Deleting {0,3}
// seeds 3, which re-derives Out from its surviving earlier In neighbor
// 2 — no flip, so the 20 leaves of its cone are never visited.
func TestFrontierHubTermination(t *testing.T) {
	ctx := context.Background()
	const leaves = 20
	edges := []graph.Edge{{U: 0, V: 3}, {U: 2, V: 3}}
	for j := int32(4); j < 4+leaves; j++ {
		edges = append(edges, graph.Edge{U: 3, V: j})
	}
	g := graph.MustFromEdges(4+leaves, edges)
	ord := core.IdentityOrder(g.NumVertices())
	mt, err := NewMIS(ctx, g, ord, 0)
	if err != nil {
		t.Fatal(err)
	}
	del := []Update{{Op: OpDel, U: 0, V: 3}}
	st, err := mt.Apply(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	if st.MIS.Seeds != 1 || st.MIS.Visited != 1 || st.MIS.Flipped != 0 || st.MIS.Changed != 0 {
		t.Fatalf("frontier should decide the hub once and stop: %+v", st.MIS)
	}
	if cone := misCone(mt.Graph(), ord, []int32{3}); cone != 1+leaves {
		t.Fatalf("the hub's downstream cone has %d items, want %d", cone, 1+leaves)
	}
	checkMISCost(t, "hub", misAnswer(g, ord), misAnswer(mt.Graph(), ord), mt.Graph(), ord, del, st.MIS)
	verifyAgainstScratch(t, mt, 0)
}

// TestFrontierFlipChainCounters pins the counter semantics on a path
// under identity order: deleting the first edge flips every vertex of
// the alternating pattern, one frontier pop at a time.
func TestFrontierFlipChainCounters(t *testing.T) {
	ctx := context.Background()
	// Path 0-1-2-3-4: identity MIS is {0, 2, 4}.
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
	})
	mt, err := NewMIS(ctx, g, core.IdentityOrder(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting {0,1} frees 1 to enter, which evicts 2, readmits 3, and
	// evicts 4: the whole chain flips.
	st, err := mt.Apply(ctx, []Update{{Op: OpDel, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := st.MIS
	if c.Seeds != 1 || c.Visited != 4 || c.Flipped != 4 || c.Changed != 4 {
		t.Fatalf("flip chain: %+v", c)
	}
	if c.FrontierPeak < 1 {
		t.Fatalf("flip chain never had a pending item: %+v", c)
	}
	verifyAgainstScratch(t, mt, 0)
}

// TestApplySteadyStateAllocs is the scratch-pooling regression guard:
// after a warmup Apply has sized the frontier scratch, further
// single-edge Applies must not allocate anything proportional to the
// graph — only the O(1) overlay-delta bookkeeping. The bound is
// generous for small map/slice churn but orders of magnitude below
// any universe-sized buffer (n = 20k here).
func TestApplySteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	g := graph.Random(20_000, 100_000, 3)
	b, err := newBoth(ctx, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch across a few differently-shaped batches.
	x := rng.NewXoshiro256(8)
	for i := 0; i < 4; i++ {
		if _, err := b.apply(ctx, randomBatch(x, b.mis, 8)); err != nil {
			t.Fatal(err)
		}
	}
	add := []Update{{Op: OpAdd, U: 11, V: 4242}}
	del := []Update{{Op: OpDel, U: 11, V: 4242}}
	if b.mis.ov.hasEdge(11, 4242) {
		add, del = del, add
	}
	for _, mt := range []*Maintainer{b.mis, b.mm} {
		i := 0
		avg := testing.AllocsPerRun(50, func() {
			batch := add
			if i%2 == 1 {
				batch = del
			}
			i++
			if _, err := mt.Apply(ctx, batch); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 32 {
			t.Fatalf("steady-state Apply allocates %.1f objects/run; repair scratch is not being pooled", avg)
		}
	}
	b.verify(t, 5)
}
