// Command bench regenerates the paper's evaluation: every figure panel
// of Blelloch, Fineman and Shun (SPAA 2012) plus the theory-validation
// and ablation tables described in EXPERIMENTS.md.
//
// Usage:
//
//	bench -experiment all                       # everything, default scale
//	bench -experiment fig1 -graph rmat          # one figure, one input
//	bench -experiment fig3 -threads 1,2,4,8
//	bench -shrink 5                             # smaller inputs (2^-5 of paper size)
//	bench -n 1000000 -m 5000000                 # explicit sizes
//
// Experiments: fig1 (MIS prefix sweep), fig2 (MM prefix sweep), fig3
// (MIS thread scaling), fig4 (MM thread scaling), luby-ratio, theory,
// ablation, spanning, orders, cold (each problem's default plan under a
// fresh seed per solve, against the warm solve and the sequential
// scan), all.
//
// The scenario matrix (-matrix, or -smoke for the smallest sizes) is
// the reproducible fixed-vs-adaptive prefix harness: it runs all five
// problems over random / rMat / grid / line-graph inputs with fixed
// seeds, verifies every answer against the sequential baseline, and
// writes a machine-readable report (default BENCH_pr3.json) whose
// machine-independent columns later PRs diff against:
//
//	bench -matrix                               # full matrix -> BENCH_pr3.json
//	bench -smoke                                # CI smoke leg, seconds
//	bench -matrix -out /tmp/report.json -reps 5
//
// The churn matrix (-churn) is the dynamic-graph harness: it maintains
// MIS and MM under randomized update batches over random / rMat / grid
// inputs, times change-driven frontier repair against from-scratch
// sequential recompute per batch size, verifies the maintained
// solutions bit-identical to sequential, records the repaired-region
// shape (visited, flipped, frontier peak) per cell, and writes
// BENCH_pr5.json. -assert-speedup turns cells into regression guards:
//
//	bench -churn                                # full scale (1M-vertex random)
//	bench -churn -smoke                         # CI churn-smoke leg, seconds
//	bench -churn -smoke -assert-speedup rmat:mm:1:1.0
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	greedy "repro"
	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig1|fig2|fig3|fig4|luby-ratio|theory|ablation|spanning|orders|cold|all")
		graphKind  = flag.String("graph", "both", "random|rmat|both")
		shrink     = flag.Uint("shrink", 5, "scale workloads to 2^-shrink of paper size (0 = paper size)")
		n          = flag.Int("n", 0, "override vertex count (0 = use -shrink)")
		m          = flag.Int("m", 0, "override edge count (0 = use -shrink)")
		seed       = flag.Uint64("seed", 42, "generator/permutation seed")
		reps       = flag.Int("reps", 3, "timing repetitions (median reported)")
		threads    = flag.String("threads", "1,2,4", "comma-separated GOMAXPROCS values for fig3/fig4")
		fracs      = flag.String("fracs", "", "comma-separated prefix fractions for fig1/fig2 (default: built-in sweep)")
		prefixFrac = flag.Float64("prefix", 0, "prefix fraction for fig3/fig4 (0 = default)")
		matrix     = flag.Bool("matrix", false, "run the fixed-vs-adaptive scenario matrix and write a JSON report")
		churn      = flag.Bool("churn", false, "run the dynamic-graph churn matrix (repair vs recompute) and write a JSON report")
		smoke      = flag.Bool("smoke", false, "matrix/churn at the smallest sizes (implies -matrix unless -churn; the CI smoke legs)")
		batches    = flag.Int("batches", 0, "timed update batches per churn cell (0: default 16)")
		out        = flag.String("out", "", "output path of the JSON report (default BENCH_pr3.json for -matrix, BENCH_pr5.json for -churn)")
		asserts    = flag.String("assert-speedup", "", "comma-separated churn speedup assertions scenario:problem:batch:min (e.g. rmat:mm:1:1.0); exit 1 on violation")
		obsCost    = flag.Bool("observer-overhead", false, "measure round-observer and trace-recording overhead on the selected workloads and print a table")
	)
	flag.Parse()

	if *obsCost {
		fmt.Printf("# %s\n\n", bench.Env())
		for _, w := range buildWorkloads(*graphKind, *shrink, *n, *m, *seed) {
			fmt.Println(bench.ObserverTable(bench.ObserverOverhead(w, *reps)))
			fmt.Println()
		}
		return
	}

	if *churn {
		var churnAsserts []bench.ChurnAssertion
		if *asserts != "" {
			for _, spec := range strings.Split(*asserts, ",") {
				a, err := bench.ParseChurnAssertion(strings.TrimSpace(spec))
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: bad -assert-speedup: %v\n", err)
					os.Exit(2)
				}
				churnAsserts = append(churnAsserts, a)
			}
		}
		report := bench.RunChurn(bench.ChurnConfig{Smoke: *smoke, Reps: *reps, Batches: *batches})
		path := *out
		if path == "" {
			path = "BENCH_pr5.json"
		}
		if err := os.WriteFile(path, report.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Println(bench.ChurnTable(report))
		fmt.Printf("wrote %s\n", path)
		if failures := report.CheckAssertions(churnAsserts); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "bench: speedup assertion failed: %s\n", f)
			}
			os.Exit(1)
		} else if len(churnAsserts) > 0 {
			fmt.Printf("all %d speedup assertions held\n", len(churnAsserts))
		}
		return
	}

	if *matrix || *smoke {
		fracList, err := parseFloats(*fracs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: bad -fracs: %v\n", err)
			os.Exit(2)
		}
		report := bench.RunMatrix(bench.MatrixConfig{Smoke: *smoke, Reps: *reps, Fracs: fracList})
		path := *out
		if path == "" {
			path = "BENCH_pr3.json"
		}
		if err := os.WriteFile(path, report.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Println(bench.MatrixTable(report))
		fmt.Printf("wrote %s\n", path)
		return
	}

	workloads := buildWorkloads(*graphKind, *shrink, *n, *m, *seed)
	threadList, err := parseInts(*threads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -threads: %v\n", err)
		os.Exit(2)
	}
	fracList, err := parseFloats(*fracs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -fracs: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("# %s\n\n", bench.Env())
	run := func(name string, enabled bool, f func()) {
		if !enabled {
			return
		}
		fmt.Printf("### experiment %s\n\n", name)
		f()
	}
	want := func(names ...string) bool {
		if *experiment == "all" {
			return true
		}
		for _, n := range names {
			if n == *experiment {
				return true
			}
		}
		return false
	}

	run("fig1 (MIS prefix sweep)", want("fig1"), func() {
		for _, w := range workloads {
			fmt.Println(bench.PrefixSweep(greedy.ProblemMIS, bench.SweepConfig{Workload: w, Fracs: fracList, Reps: *reps}))
		}
	})
	run("fig2 (MM prefix sweep)", want("fig2"), func() {
		for _, w := range workloads {
			fmt.Println(bench.PrefixSweep(greedy.ProblemMM, bench.SweepConfig{Workload: w, Fracs: fracList, Reps: *reps}))
		}
	})
	run("fig3 (MIS thread scaling)", want("fig3"), func() {
		for _, w := range workloads {
			fmt.Println(bench.ThreadScaling(greedy.ProblemMIS, bench.ThreadConfig{
				Workload: w, Threads: threadList, PrefixFrac: *prefixFrac, Reps: *reps,
			}))
		}
	})
	run("fig4 (MM thread scaling)", want("fig4"), func() {
		for _, w := range workloads {
			fmt.Println(bench.ThreadScaling(greedy.ProblemMM, bench.ThreadConfig{
				Workload: w, Threads: threadList, PrefixFrac: *prefixFrac, Reps: *reps,
			}))
		}
	})
	run("luby-ratio (in-text claim)", want("luby-ratio"), func() {
		for _, w := range workloads {
			fmt.Println(bench.LubyWorkRatio(w, *reps))
		}
	})
	run("theory (Theorem 3.5, Lemmas 3.1/3.3/4.3)", want("theory"), func() {
		theoryN := 4 * (1_000_000 >> *shrink)
		fmt.Println(bench.TheoryDependenceLength(nil, 10, *seed))
		fmt.Println(bench.TheoryPrefixPath(theoryN, 10, *seed))
		fmt.Println(bench.TheoryDegreeReduction(theoryN, 10, *seed))
		fmt.Println(bench.TheoryPrefixSparsity(theoryN, 10, *seed))
	})
	run("ablation (AB1 pointer, AB2 algorithms)", want("ablation"), func() {
		for _, w := range workloads {
			fmt.Println(bench.AblationPointer(w, *reps))
			fmt.Println(bench.AblationAlgorithms(w, *reps))
		}
	})
	run("spanning (Section 7 extension)", want("spanning"), func() {
		for _, w := range workloads {
			fmt.Println(bench.SpanningForestExperiment(w, *reps))
		}
	})
	run("orders (random vs structured priority orders)", want("orders"), func() {
		fmt.Println(bench.OrderSensitivity(1_000_000>>*shrink, *seed))
	})
	run("cold (a fresh seed per solve vs the sequential scan)", want("cold"), func() {
		for _, w := range workloads {
			fmt.Println(bench.ColdPath(w, *reps))
		}
	})
}

func buildWorkloads(kind string, shrink uint, n, m int, seed uint64) []bench.Workload {
	kinds := []string{"random", "rmat"}
	switch kind {
	case "both":
	case "random", "rmat":
		kinds = []string{kind}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -graph %q\n", kind)
		os.Exit(2)
	}
	var out []bench.Workload
	for _, k := range kinds {
		w := bench.DefaultScale(k, shrink)
		if n > 0 {
			w.N = n
		}
		if m > 0 {
			w.M = m
		}
		w.Seed = seed
		out = append(out, w)
	}
	return out
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
