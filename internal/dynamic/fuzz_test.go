package dynamic

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
)

// FuzzConeRepair is the repair-equivalence fuzz target: arbitrary
// bytes are decoded into a base graph (an edge-soup "random" shape or a
// power-law rMat shape, whose hubs stress the flip expansion) and a
// stream of update batches. After every batch the maintained MIS and
// matching must be bit-identical to a from-scratch
// sequential greedy run on the mutated graph, and the repair counters
// must agree with references that share no code with the repair:
// Changed with the items whose sequential answers differ between the
// two graph versions, MIS Seeds with the seeding rule, and Visited with
// the seeds' breadth-first downstream cone (checkMISCost, checkMMCost).
// Run with `go test -fuzz=FuzzConeRepair ./internal/dynamic`; the seed
// corpus also runs under plain `go test`.
//
// Ops are decoded so that every generated batch is valid (an absent
// edge is inserted, a present edge is deleted, intra-batch duplicates
// are skipped), keeping the fuzzer exploring repair paths rather than
// validation rejections — the validation paths have their own table
// test.
func FuzzConeRepair(f *testing.F) {
	f.Add(uint8(8), uint8(0), uint64(1), []byte{0, 1, 1, 2, 2, 3}, []byte{0, 3, 1, 2, 0, 1})
	f.Add(uint8(3), uint8(0), uint64(42), []byte{}, []byte{0, 1, 1, 2, 0, 2, 0, 1})
	f.Add(uint8(20), uint8(0), uint64(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{1, 9, 2, 8, 3, 7, 1, 9})
	f.Add(uint8(0), uint8(0), uint64(0), []byte{}, []byte{})
	f.Add(uint8(30), uint8(1), uint64(5), []byte{9}, []byte{0, 7, 3, 12, 0, 7, 19, 2, 5, 5, 1, 30})
	f.Add(uint8(14), uint8(3), uint64(77), []byte{200}, []byte{1, 2, 2, 3, 1, 2, 9, 9, 4, 11, 0, 13})
	f.Fuzz(func(t *testing.T, rawN uint8, shape uint8, seed uint64, baseEdges []byte, ops []byte) {
		var g *graph.Graph
		var n int
		if shape&1 == 0 {
			// Random shape: byte soup through FromEdges, which drops
			// self loops and merges duplicates.
			n = int(rawN%40) + 2
			edges := make([]graph.Edge, 0, len(baseEdges)/2)
			for i := 0; i+1 < len(baseEdges); i += 2 {
				u := graph.Vertex(int(baseEdges[i]) % n)
				v := graph.Vertex(int(baseEdges[i+1]) % n)
				edges = append(edges, graph.Edge{U: u, V: v})
			}
			var err error
			g, err = graph.FromEdges(n, edges)
			if err != nil {
				t.Fatalf("base graph: %v", err)
			}
		} else {
			// rMat shape: skewed-degree base whose hub vertices stress
			// the flip-expansion paths. Density varies with the input.
			logN := int(rawN%4) + 2 // 4..32 vertices
			n = 1 << logN
			m := 0
			if len(baseEdges) > 0 {
				m = int(baseEdges[0]) % (3 * n)
			}
			if max := n * (n - 1) / 2; m > max {
				m = max
			}
			g = graph.RMat(logN, m, seed|1)
		}
		ctx := context.Background()
		b, err := newBoth(ctx, g, seed)
		if err != nil {
			t.Fatalf("maintainer: %v", err)
		}
		ord := b.mis.mis.ord
		mis, mm := misAnswer(g, ord), mmAnswer(g, seed)
		// Decode ops into batches: byte pairs name an endpoint pair, a
		// degenerate pair flushes the batch, toggling presence keeps
		// every batch valid.
		var batch []Update
		inBatch := make(map[[2]int32]bool)
		flush := func() {
			if len(batch) == 0 {
				return
			}
			st, err := b.apply(ctx, batch)
			if err != nil {
				t.Fatalf("apply %v: %v", batch, err)
			}
			verifyFuzz(t, b, seed)
			after := b.mis.Graph()
			label := fmt.Sprintf("batch %v", batch)
			nextMIS, nextMM := misAnswer(after, ord), mmAnswer(after, seed)
			checkMISCost(t, label, mis, nextMIS, after, ord, batch, st.MIS)
			checkMMCost(t, label, mm, nextMM, after, seed, batch, st.MM)
			mis, mm = nextMIS, nextMM
			batch = batch[:0]
			clear(inBatch)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			u := int32(int(ops[i]) % n)
			v := int32(int(ops[i+1]) % n)
			if u == v {
				flush() // reuse degenerate pairs as batch boundaries
				continue
			}
			cu, cv := canonical(u, v)
			if inBatch[[2]int32{cu, cv}] {
				continue
			}
			inBatch[[2]int32{cu, cv}] = true
			// Each edge appears at most once per batch, so presence at
			// batch start equals presence at validation time: toggling
			// keeps the batch valid.
			op := OpAdd
			if b.mis.ov.hasEdge(cu, cv) {
				op = OpDel
			}
			batch = append(batch, Update{Op: op, U: u, V: v})
			if len(batch) >= 5 {
				flush()
			}
		}
		flush()
	})
}

// verifyFuzz is the fuzz-path equivalence check (a lighter clone of the
// test helper, fatal on first divergence).
func verifyFuzz(t *testing.T, b both, seed uint64) {
	t.Helper()
	g := b.mis.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
	want := must(core.SequentialMIS(context.Background(), g, b.mis.mis.ord, core.Options{}))
	got := b.mis.MISResult()
	for v := range want.InSet {
		if got.InSet[v] != want.InSet[v] {
			t.Fatalf("MIS diverged at vertex %d", v)
		}
	}
	el := g.EdgeList()
	wantMM := must(matching.SequentialMM(context.Background(), el, EdgeOrder(el, seed), matching.Options{}))
	gotPairs := b.mm.MatchingPairs()
	if len(gotPairs) != len(wantMM.Pairs) {
		t.Fatalf("MM size diverged: %d vs %d", len(gotPairs), len(wantMM.Pairs))
	}
	for i := range gotPairs {
		if gotPairs[i] != wantMM.Pairs[i] {
			t.Fatalf("MM diverged at pair %d", i)
		}
	}
}
