// Quickstart: build a graph, compute a maximal independent set and a
// maximal matching with the paper's prefix-based parallel algorithms
// through the Solver API — reusable workspaces, cancellable runs, and
// per-round progress — and verify both against the sequential greedy
// specification.
package main

import (
	"context"
	"fmt"
	"log"

	greedy "repro"
)

func main() {
	// The paper's first experimental input family at a small scale: a
	// sparse random graph, here with 100k vertices and 500k edges.
	g := greedy.RandomGraph(100_000, 500_000, 42)
	fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())

	// A Solver owns a reusable workspace: every run below shares the
	// same frontier/flag buffers and cached priority orders.
	solver := greedy.NewSolver(greedy.WithSeed(7))
	ctx := context.Background()

	// Maximal independent set. The default algorithm is the paper's
	// prefix-based one; the seed fixes the random priority order, and
	// with it the exact answer.
	mis, err := solver.MIS(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MIS: size=%d  %s\n", mis.Size(), mis.Stats)

	// The answer is the lexicographically-first MIS: exactly what the
	// sequential greedy algorithm returns for the same order.
	ord := greedy.NewRandomOrder(g.NumVertices(), 7)
	if err := greedy.VerifyLexFirstMIS(g, ord, mis); err != nil {
		log.Fatalf("determinism violated: %v", err)
	}
	fmt.Println("MIS matches the sequential greedy answer exactly")

	// Maximal matching over a random edge order, same guarantees.
	el := g.EdgeList()
	mm, err := solver.MM(ctx, el)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MM: size=%d  %s\n", mm.Size(), mm.Stats)
	if err := greedy.VerifyLexFirstMM(el, greedy.NewRandomOrder(el.NumEdges(), 7), mm); err != nil {
		log.Fatalf("determinism violated: %v", err)
	}

	// The prefix size dials between work and parallelism (Figure 1 of
	// the paper): prefix 1 is sequential, the full prefix is maximally
	// parallel but does ~2.5x the work. The same solver workspace
	// serves every configuration.
	for _, frac := range []float64{0.0001, 0.01, 1.0} {
		r, err := solver.MIS(ctx, g, greedy.WithPrefixFrac(frac))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prefix %6.4f: rounds=%6d work/N=%.3f (same set: %v)\n",
			frac, r.Stats.Rounds,
			float64(r.Stats.Attempts)/float64(g.NumVertices()),
			r.Equal(mis))
	}

	// A round observer streams the paper's Figure 1 quantities live;
	// here it also demonstrates cancellation: cancel mid-run and the
	// solver returns ctx.Err() within one round.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var rounds int64
	_, err = solver.MIS(runCtx, g, greedy.WithPrefixFrac(0.001),
		greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
			rounds = ri.Round
			if ri.Round == 10 {
				cancel() // enough progress: abort the run
			}
		}))
	fmt.Printf("cancelled run: observed %d rounds, err=%v\n", rounds, err)
}
