package greedy_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	greedy "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/spanning"
)

// TestEndToEndPipeline exercises the full user workflow across modules:
// generate a graph, serialize it to disk in each format, read it back,
// run every solver on the round-tripped graph, and verify the results
// against the sequential specifications.
func TestEndToEndPipeline(t *testing.T) {
	g := greedy.RMatGraph(11, 6000, 99)
	dir := t.TempDir()

	write := map[string]func(*graph.Graph, *os.File) error{
		"g.adj": func(g *graph.Graph, f *os.File) error { return graph.WriteAdjacency(f, g) },
		"g.el":  func(g *graph.Graph, f *os.File) error { return graph.WriteEdgeArray(f, g) },
		"g.bin": func(g *graph.Graph, f *os.File) error { return graph.WriteBinary(f, g) },
	}
	for name, w := range write {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w(g, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		in, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := graph.ReadAuto(in)
		in.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip changed edge count", name)
		}
		// The EdgeArray format cannot represent trailing isolated
		// vertices (n is inferred from the largest endpoint); the other
		// formats are exact.
		if name != "g.el" && loaded.NumVertices() != g.NumVertices() {
			t.Fatalf("%s: round trip changed vertex count", name)
		}

		// Solve everything on the loaded graph and verify.
		s := greedy.NewSolver(greedy.WithSeed(3))
		mis := must(s.MIS(context.Background(), loaded))
		if err := greedy.VerifyLexFirstMIS(loaded, greedy.NewRandomOrder(loaded.NumVertices(), 3), mis); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		el := loaded.EdgeList()
		mm := must(s.MM(context.Background(), el))
		if err := greedy.VerifyLexFirstMM(el, greedy.NewRandomOrder(el.NumEdges(), 3), mm); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		sf := must(s.SF(context.Background(), el))
		if !spanning.IsForest(el, sf.InForest) || !spanning.IsSpanning(el, sf.InForest) {
			t.Errorf("%s: spanning forest invalid", name)
		}
	}
}

// TestCrossModuleMISMMConsistency checks a structural relationship
// between the two problems: the matched edges of the greedy MM form an
// independent set in the line graph, and MM-as-MIS-on-line-graph equals
// the direct algorithm (Lemma 5.1 at integration level, through the
// public API layers).
func TestCrossModuleMISMMConsistency(t *testing.T) {
	g := greedy.RandomGraph(300, 900, 17)
	el := g.EdgeList()
	ord := greedy.NewRandomOrder(el.NumEdges(), 4)

	direct := must(matching.PrefixMM(context.Background(), el, ord, matching.Options{Options: engine.Options{PrefixFrac: 0.1}}))
	viaLG := matching.ViaLineGraphMIS(g, ord)
	if !direct.Equal(viaLG) {
		t.Fatal("direct MM and line-graph MIS disagree")
	}

	lg, _ := graph.LineGraph(g)
	if !core.IsIndependentSet(lg, direct.InMatching) {
		t.Fatal("matching is not independent in the line graph")
	}
	if !core.IsMaximalIndependentSet(lg, direct.InMatching) {
		t.Fatal("matching is not maximal in the line graph")
	}
}

// TestAnalyzerExecutableAgreement ties the analytic tools to the real
// executions across a structured zoo of graphs: the analyzer's MIS
// equals the executed MIS, and the root-set executions realize exactly
// the analyzer's dependence lengths (MIS and MM).
func TestAnalyzerExecutableAgreement(t *testing.T) {
	zoo := []*graph.Graph{
		greedy.RandomGraph(400, 1600, 1),
		greedy.RMatGraph(9, 1500, 2),
		graph.Grid2D(20, 21),
		graph.Torus2D(15, 15),
		graph.RandomTree(300, 3),
		graph.NearRegular(200, 8, 4),
		graph.CompleteBipartite(25, 30),
	}
	for i, g := range zoo {
		ord := greedy.NewRandomOrder(g.NumVertices(), uint64(i)+50)
		info := core.DependenceSteps(g, ord)
		exec := must(core.RootSetMIS(context.Background(), g, ord, core.Options{}))
		if int(exec.Stats.Rounds) != info.Steps {
			t.Errorf("graph %d: rootset steps %d != analyzer %d", i, exec.Stats.Rounds, info.Steps)
		}
		for v := range info.InSet {
			if info.InSet[v] != exec.InSet[v] {
				t.Fatalf("graph %d: analyzer and execution disagree at vertex %d", i, v)
			}
		}

		el := g.EdgeList()
		if el.NumEdges() == 0 {
			continue
		}
		mmOrd := greedy.NewRandomOrder(el.NumEdges(), uint64(i)+80)
		mmInfo := matching.DependenceSteps(el, mmOrd)
		mmExec := must(matching.RootSetMM(context.Background(), el, mmOrd, matching.Options{}))
		if int(mmExec.Stats.Rounds) != mmInfo.Steps {
			t.Errorf("graph %d: MM rootset steps %d != analyzer %d", i, mmExec.Stats.Rounds, mmInfo.Steps)
		}
	}
}

// TestGraphFormatsInteroperate writes with one format and verifies the
// canonical edge list survives every conversion path.
func TestGraphFormatsInteroperate(t *testing.T) {
	g := greedy.RandomGraph(120, 500, 8)
	var adj, el, bin bytes.Buffer
	if err := graph.WriteAdjacency(&adj, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeArray(&el, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	fromAdj, err := graph.ReadAuto(&adj)
	if err != nil {
		t.Fatal(err)
	}
	fromEl, err := graph.ReadAuto(&el)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := graph.ReadAuto(&bin)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := fromAdj.Edges(), fromEl.Edges(), fromBin.Edges()
	if len(a) != len(b) || len(b) != len(c) {
		t.Fatal("edge counts differ across formats")
	}
	for i := range a {
		if a[i] != b[i] || b[i] != c[i] {
			t.Fatalf("edge %d differs across formats", i)
		}
	}
}
