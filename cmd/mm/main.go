// Command mm computes a maximal matching of a graph with any of the
// library's algorithms and reports the result and its cost counters.
// It runs on the Solver API: Ctrl-C cancels a long run within one
// round, and -progress streams the per-round profile to stderr.
//
// Usage:
//
//	mm -in graph.adj -algorithm prefix -prefix 0.01
//	mm -gen random -n 100000 -m 500000 -algorithm rootset -verify
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
	"repro/internal/matching"
)

func main() {
	var (
		in        = flag.String("in", "", "input graph file (empty: use -gen)")
		gen       = flag.String("gen", "random", "generator when no -in: random|rmat")
		n         = flag.Int("n", 100_000, "generated vertex count")
		m         = flag.Int("m", 500_000, "generated edge count")
		seed      = flag.Uint64("seed", 42, "seed for generator and priorities")
		algorithm = flag.String("algorithm", "prefix", "sequential|parallel|rootset|prefix")
		prefix    = flag.Float64("prefix", 0, "prefix fraction (0 = default)")
		verify    = flag.Bool("verify", false, "verify maximality and lex-first equality")
		progress  = flag.Bool("progress", false, "stream per-round stats to stderr")
		quiet     = flag.Bool("q", false, "print only the summary line")
	)
	flag.Parse()

	g, err := loadOrGenerate(*in, *gen, *n, *m, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mm: %v\n", err)
		os.Exit(2)
	}
	el := g.EdgeList()
	ord := core.NewRandomOrder(el.NumEdges(), *seed+2)

	algo, err := greedy.ParseAlgorithm(*algorithm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mm: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []greedy.Option{
		greedy.WithAlgorithm(algo),
		greedy.WithOrder(ord),
		greedy.WithPrefixFrac(*prefix),
	}
	if *progress {
		opts = append(opts, greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
			fmt.Fprintf(os.Stderr, "round %6d: prefix=%d attempted=%d accepted=%d inspections=%d\n",
				ri.Round, ri.PrefixSize, ri.Attempted, ri.Accepted, ri.EdgeInspections)
		}))
	}

	solver := greedy.NewSolver()
	start := time.Now()
	res, err := solver.MM(ctx, el, opts...)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintf(os.Stderr, "mm: cancelled after %v\n", elapsed)
			os.Exit(130)
		case errors.Is(err, greedy.ErrLubyMatching):
			fmt.Fprintf(os.Stderr, "mm: %v\n", err)
			os.Exit(2)
		default:
			fmt.Fprintf(os.Stderr, "mm: %v\n", err)
			os.Exit(1)
		}
	}

	if !*quiet {
		fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())
		fmt.Printf("algorithm: %s\n", *algorithm)
		fmt.Printf("stats: %s\n", res.Stats)
	}
	fmt.Printf("mm: size=%d time=%v\n", res.Size(), elapsed)

	if *verify {
		if !matching.IsMaximalMatching(el, res.InMatching) {
			fmt.Fprintln(os.Stderr, "mm: VERIFICATION FAILED: not a maximal matching")
			os.Exit(1)
		}
		if err := matching.VerifyLexFirst(el, ord, res); err != nil {
			fmt.Fprintf(os.Stderr, "mm: VERIFICATION FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("verify: ok")
	}
}

func loadOrGenerate(in, gen string, n, m int, seed uint64) (*graph.Graph, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadAuto(f)
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
