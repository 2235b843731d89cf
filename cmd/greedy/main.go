// Command greedy solves one of the library's greedy problems — maximal
// independent set, maximal matching, spanning forest, coloring or
// hitting set — with any algorithm the problem's table row accepts,
// and reports the answer's size, its checksum and the run's cost
// counters. The checksum is the digest greedyd serves for the same
// graph and plan. The input is a graph file (PBBS AdjacencyGraph,
// EdgeArray, or the library's binary format, auto-detected) or a
// generated graph. It runs on the Solver API: Ctrl-C cancels a long run
// within one round, and -progress streams the per-round profile (the
// paper's Figure 1 quantities) to stderr as the run advances.
//
// Usage:
//
//	greedy -problem mis -in graph.adj -algorithm prefix -prefix 0.01
//	greedy -problem mm -gen random -n 100000 -m 500000 -algorithm rootset -verify
//	greedy -problem coloring -gen rmat -n 65536 -m 500000 -verify
//	greedy -problem mis -n 10000000 -m 50000000 -progress
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	greedy "repro"
	"repro/internal/graph"
)

func main() {
	// Ctrl-C / SIGTERM cancels the run within one round instead of
	// killing the process mid-computation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, writes the
// report to stdout and problems to stderr, and returns the process exit
// code (0 ok, 1 failed run or verification, 2 usage or load error, 130
// cancelled).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("greedy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var problems []string
	for _, p := range greedy.Problems() {
		problems = append(problems, string(p))
	}
	var (
		problem   = fs.String("problem", "mis", "problem: "+strings.Join(problems, "|"))
		in        = fs.String("in", "", "input graph file (empty: use -gen)")
		gen       = fs.String("gen", "random", "generator when no -in: random|rmat (rmat rounds -n up to a power of two)")
		n         = fs.Int("n", 100_000, "generated vertex count")
		m         = fs.Int("m", 500_000, "generated edge count")
		seed      = fs.Uint64("seed", 42, "seed for the generator; the priorities use seed+1")
		algorithm = fs.String("algorithm", "prefix", "sequential|parallel|rootset|prefix|luby, as the problem accepts")
		prefix    = fs.Float64("prefix", 0, "prefix fraction for the prefix algorithm (0 = default)")
		pointered = fs.Bool("pointered", false, "use the Lemma 4.1 parent-pointer optimization (MIS)")
		verify    = fs.Bool("verify", false, "verify the answer, its equality with the sequential one and, for MIS and MM, the lex-first reference")
		progress  = fs.Bool("progress", false, "stream per-round stats to stderr")
		quiet     = fs.Bool("q", false, "print only the summary line")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "greedy: %v\n", err)
		return code
	}

	p, err := greedy.ParseProblem(*problem)
	if err != nil {
		return fail(2, err)
	}
	algo, err := greedy.ParseAlgorithm(*algorithm)
	if err != nil {
		return fail(2, err)
	}
	opts := []greedy.Option{greedy.WithAlgorithm(algo), greedy.WithSeed(*seed + 1), greedy.WithPrefixFrac(*prefix)}
	if *pointered {
		opts = append(opts, greedy.WithPointer())
	}
	plan := greedy.ResolvePlan(opts...)
	if err = p.Check(plan); err != nil {
		return fail(2, err)
	}
	g, err := load(*in, *gen, *n, *m, *seed)
	if err != nil {
		return fail(2, err)
	}
	if *progress {
		opts = append(opts, greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
			fmt.Fprintf(stderr, "round %6d: prefix=%d attempted=%d accepted=%d inspections=%d\n",
				ri.Round, ri.PrefixSize, ri.Attempted, ri.Accepted, ri.EdgeInspections)
		}))
	}

	input := greedy.GraphInput(g)
	solver := greedy.NewSolver()
	start := time.Now()
	a, err := solver.Solve(ctx, p, input, opts...)
	elapsed := time.Since(start)
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "greedy: cancelled after %v\n", elapsed)
		return 130
	case err != nil:
		return fail(1, err)
	}

	if !*quiet {
		fmt.Fprintf(stdout, "graph: n=%d m=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())
		fmt.Fprintf(stdout, "algorithm: %s\n", algo)
		fmt.Fprintf(stdout, "stats: %s\n", a.Stats)
	}
	fmt.Fprintf(stdout, "%s: size=%d checksum=%s time=%v\n", p, a.Size, a.Checksum(), elapsed)

	if *verify {
		if err = verifyAnswer(ctx, solver, input, a, plan); err != nil {
			return fail(1, fmt.Errorf("VERIFICATION FAILED: %w", err))
		}
		fmt.Fprintln(stdout, "verify: ok")
	}
	return 0
}

// verifyAnswer checks a, solved on in under plan: it must be a valid
// answer and, unless Luby drew it, match the sequential answer under
// the same priorities and, for MIS and MM, the independent lex-first
// reference.
func verifyAnswer(ctx context.Context, s *greedy.Solver, in greedy.Input, a greedy.Answer, plan greedy.Plan) error {
	if err := a.Verify(in); err != nil || plan.Algorithm == greedy.AlgoLuby {
		return err
	}
	plan.Algorithm = greedy.AlgoSequential
	seq, err := s.Solve(ctx, a.Problem, in, plan.Options()...)
	if err != nil {
		return err
	}
	if !a.Matches(seq) {
		return fmt.Errorf("the %s answer differs from the sequential one", a.Problem)
	}
	switch a.Problem {
	case greedy.ProblemMIS:
		ord := greedy.NewRandomOrder(in.Graph().NumVertices(), plan.Seed)
		return greedy.VerifyLexFirstMIS(in.Graph(), ord, &greedy.MISResult{InSet: a.In})
	case greedy.ProblemMM:
		ord := greedy.NewRandomOrder(in.EdgeList().NumEdges(), plan.Seed)
		return greedy.VerifyLexFirstMM(in.EdgeList(), ord, &greedy.MMResult{InMatching: a.In})
	}
	return nil
}

// load reads the graph file in, or generates gen(n, m, seed) when in is
// empty.
func load(in, gen string, n, m int, seed uint64) (*graph.Graph, error) {
	if in == "" {
		return graph.Generate(gen, n, m, seed)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadAuto(f)
}
