// Command mis computes a maximal independent set of a graph with any of
// the library's algorithms and reports the result and its cost counters.
// The input is a graph file (PBBS AdjacencyGraph, EdgeArray, or the
// library's binary format, auto-detected) or a generated graph. It runs
// on the Solver API: Ctrl-C cancels a long run within one round, and
// -progress streams the per-round profile (the paper's Figure 1
// quantities) to stderr as the run advances.
//
// Usage:
//
//	mis -in graph.adj -algorithm prefix -prefix 0.01
//	mis -gen random -n 100000 -m 500000 -algorithm rootset
//	mis -gen rmat -n 65536 -m 500000 -algorithm luby -verify
//	mis -n 10000000 -m 50000000 -progress
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	greedy "repro"
	"repro/internal/core"
	"repro/internal/graph"
)

func main() {
	var (
		in        = flag.String("in", "", "input graph file (empty: use -gen)")
		gen       = flag.String("gen", "random", "generator when no -in: random|rmat")
		n         = flag.Int("n", 100_000, "generated vertex count")
		m         = flag.Int("m", 500_000, "generated edge count")
		seed      = flag.Uint64("seed", 42, "seed for generator and priorities")
		algorithm = flag.String("algorithm", "prefix", "sequential|parallel|rootset|prefix|luby")
		prefix    = flag.Float64("prefix", 0, "prefix fraction for the prefix algorithm (0 = default)")
		pointered = flag.Bool("pointered", false, "use the Lemma 4.1 parent-pointer optimization")
		verify    = flag.Bool("verify", false, "verify maximality (and lex-first equality for deterministic algorithms)")
		progress  = flag.Bool("progress", false, "stream per-round stats to stderr")
		quiet     = flag.Bool("q", false, "print only the summary line")
	)
	flag.Parse()

	g, err := loadOrGenerate(*in, *gen, *n, *m, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mis: %v\n", err)
		os.Exit(2)
	}

	algo, err := greedy.ParseAlgorithm(*algorithm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mis: %v\n", err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels the run within one round instead of
	// killing the process mid-computation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ord := core.NewRandomOrder(g.NumVertices(), *seed+1)
	opts := []greedy.Option{
		greedy.WithAlgorithm(algo),
		greedy.WithOrder(ord),
		greedy.WithPrefixFrac(*prefix),
		// Luby ignores the order and derives fresh priorities from the
		// seed; +9 keeps parity with the seeds used by cmd/bench.
		greedy.WithSeed(*seed + 9),
	}
	if *pointered {
		opts = append(opts, greedy.WithPointer())
	}
	if *progress {
		opts = append(opts, greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
			fmt.Fprintf(os.Stderr, "round %6d: prefix=%d attempted=%d accepted=%d inspections=%d\n",
				ri.Round, ri.PrefixSize, ri.Attempted, ri.Accepted, ri.EdgeInspections)
		}))
	}

	solver := greedy.NewSolver()
	start := time.Now()
	res, err := solver.MIS(ctx, g, opts...)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "mis: cancelled after %v\n", elapsed)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "mis: %v\n", err)
		os.Exit(1)
	}

	if !*quiet {
		fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())
		fmt.Printf("algorithm: %s\n", *algorithm)
		fmt.Printf("stats: %s\n", res.Stats)
	}
	fmt.Printf("mis: size=%d time=%v\n", res.Size(), elapsed)

	if *verify {
		if !core.IsMaximalIndependentSet(g, res.InSet) {
			fmt.Fprintln(os.Stderr, "mis: VERIFICATION FAILED: not a maximal independent set")
			os.Exit(1)
		}
		if algo != greedy.AlgoLuby {
			if err := core.VerifyLexFirst(g, ord, res); err != nil {
				fmt.Fprintf(os.Stderr, "mis: VERIFICATION FAILED: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println("verify: ok")
	}
}

func loadOrGenerate(in, gen string, n, m int, seed uint64) (*graph.Graph, error) {
	if in != "" {
		return loadGraph(in)
	}
	switch gen {
	case "random":
		return graph.Random(n, m, seed), nil
	case "rmat":
		logn := 0
		for 1<<logn < n {
			logn++
		}
		return graph.RMat(logn, m, seed), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadAuto(f)
}
