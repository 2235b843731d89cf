// Benchmarks reproducing every figure of Blelloch, Fineman and Shun
// (SPAA 2012). Each BenchmarkFigN corresponds to one figure on one
// input; EXPERIMENTS.md is the index. Inputs are scaled to 1/100 of the
// paper's so the full suite runs on a small container; cmd/bench runs
// the same experiments at configurable scale and EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Every figure runs through Solver.Solve. Machine-independent quantities
// (work/N, rounds/N) are attached to the timing benchmarks via
// b.ReportMetric, so `go test -bench=.` regenerates both the time series
// and the counter series of each figure. ns/op excludes the order and
// layout the Solver caches, as cmd/bench's time columns do.
package greedy_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	greedy "repro"
	"repro/internal/engine"
	"repro/internal/spanning"
)

// Benchmark workloads: the paper's two inputs at 1/100 scale, preserving
// the m/n ratios (random: n=10^5, m=5x10^5; rMat: n=2^17, m=5x10^5).
const (
	benchSeed    = 42
	benchRandN   = 100_000
	benchRandM   = 500_000
	benchRMatLog = 17
	benchRMatM   = 500_000
)

var (
	graphOnce  sync.Once
	benchRand  greedy.Input
	benchRMat  greedy.Input
	sweepFracs = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0}
	sequential = greedy.WithAlgorithm(greedy.AlgoSequential)
	luby       = []greedy.Option{greedy.WithAlgorithm(greedy.AlgoLuby), greedy.WithSeed(benchSeed + 9)}
)

func benchSetup() {
	graphOnce.Do(func() {
		benchRand = greedy.GraphInput(greedy.RandomGraph(benchRandN, benchRandM, benchSeed))
		benchRMat = greedy.GraphInput(greedy.RMatGraph(benchRMatLog, benchRMatM, benchSeed))
	})
}

// benchSolver returns a Solver seeded as the figures seed problem's
// runs: benchSeed+1 for MIS, +2 for MM, +3 for SF.
func benchSolver(problem greedy.Problem) *greedy.Solver {
	return greedy.NewSolver(greedy.WithSeed(benchSeed + 1 + uint64(slices.Index(greedy.Problems(), problem))))
}

// solve benches b.N solves of problem on in and returns the last
// answer. A verified solve before the timer builds what the Solver
// caches.
func solve(b *testing.B, solver *greedy.Solver, problem greedy.Problem, in greedy.Input, opts ...greedy.Option) greedy.Answer {
	a := must(solver.Solve(context.Background(), problem, in, opts...))
	if err := a.Verify(in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = must(solver.Solve(context.Background(), problem, in, opts...))
	}
	return a
}

// prefixPanel benches problem's prefix algorithm across the sweep
// fractions on one input, reporting the figure's three series: time
// via ns/op, and work and rounds per item (unit: N vertices or M edges)
// via metrics.
func prefixPanel(b *testing.B, problem greedy.Problem, in greedy.Input, unit string) {
	solver := benchSolver(problem)
	items := float64(must(solver.Solve(context.Background(), problem, in, sequential)).Stats.Attempts)
	for _, frac := range sweepFracs {
		b.Run(fmt.Sprintf("prefix=%g", frac), func(b *testing.B) {
			a := solve(b, solver, problem, in, greedy.WithPrefixFrac(frac))
			b.ReportMetric(float64(a.Stats.Attempts)/items, "work/"+unit)
			b.ReportMetric(float64(a.Stats.Rounds)/items, "rounds/"+unit)
		})
	}
}

// Figure 1: MIS work (a, d), rounds (b, e) and time (c, f) vs prefix
// size, on the random graph (a-c) and the rMat graph (d-f).
func BenchmarkFig1MISRandom(b *testing.B) {
	benchSetup()
	prefixPanel(b, greedy.ProblemMIS, benchRand, "N")
}
func BenchmarkFig1MISRMat(b *testing.B) {
	benchSetup()
	prefixPanel(b, greedy.ProblemMIS, benchRMat, "N")
}

// Figure 2: the same for MM, per edge.
func BenchmarkFig2MMRandom(b *testing.B) {
	benchSetup()
	prefixPanel(b, greedy.ProblemMM, benchRand, "M")
}
func BenchmarkFig2MMRMat(b *testing.B) {
	benchSetup()
	prefixPanel(b, greedy.ProblemMM, benchRMat, "M")
}

// series names one plan of a panel.
type series struct {
	name string
	opts []greedy.Option
}

// threadPanel benches, at each thread count, problem's prefix
// algorithm, Luby's where the problem has one, and the sequential scan.
func threadPanel(b *testing.B, problem greedy.Problem, in greedy.Input) {
	solver := benchSolver(problem)
	name := strings.ToUpper(string(problem))
	for _, procs := range []int{1, 2, 4} {
		for _, s := range []series{{"prefix" + name, nil}, {"luby", luby}, {"serial" + name, []greedy.Option{sequential}}} {
			if problem.Check(greedy.ResolvePlan(s.opts...)) != nil {
				continue
			}
			b.Run(fmt.Sprintf("threads=%d/%s", procs, s.name), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				solve(b, solver, problem, in, s.opts...)
			})
		}
	}
}

// Figure 3: MIS running time vs threads (prefix-based vs Luby vs serial).
func BenchmarkFig3aMISThreadsRandom(b *testing.B) {
	benchSetup()
	threadPanel(b, greedy.ProblemMIS, benchRand)
}
func BenchmarkFig3bMISThreadsRMat(b *testing.B) {
	benchSetup()
	threadPanel(b, greedy.ProblemMIS, benchRMat)
}

// Figure 4: MM running time vs threads (prefix-based vs serial).
func BenchmarkFig4aMMThreadsRandom(b *testing.B) {
	benchSetup()
	threadPanel(b, greedy.ProblemMM, benchRand)
}
func BenchmarkFig4bMMThreadsRMat(b *testing.B) {
	benchSetup()
	threadPanel(b, greedy.ProblemMM, benchRMat)
}

// In-text claim T1: the prefix-based MIS does less work than Luby
// (paper: 4-8x faster); the metric reports the inspection ratio.
func BenchmarkTextMISvsLuby(b *testing.B) {
	benchSetup()
	solver := benchSolver(greedy.ProblemMIS)
	b.Run("prefixMIS", func(b *testing.B) {
		pref := solve(b, solver, greedy.ProblemMIS, benchRand)
		lu := must(solver.Solve(context.Background(), greedy.ProblemMIS, benchRand, luby...))
		b.ReportMetric(float64(lu.Stats.EdgeInspections)/float64(pref.Stats.EdgeInspections), "luby-inspect-ratio")
	})
	b.Run("luby", func(b *testing.B) { solve(b, solver, greedy.ProblemMIS, benchRand, luby...) })
}

// Theory TH1 (Theorem 3.5): dependence length across n; the metric
// reports steps/log2(n)^2 staying bounded.
func BenchmarkTheoremDependenceLength(b *testing.B) {
	for _, n := range []int{10_000, 40_000, 160_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := greedy.RandomGraph(n, 5*n, uint64(n))
			ord := greedy.NewRandomOrder(n, uint64(n)+1)
			var steps int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps = greedy.DependenceLength(g, ord)
			}
			lg := 0.0
			for v := n; v > 1; v >>= 1 {
				lg++
			}
			b.ReportMetric(float64(steps), "depLen")
			b.ReportMetric(float64(steps)/(lg*lg), "depLen/log2n^2")
		})
	}
}

// Ablation AB1: rescan-from-scratch vs parent-pointer attempts.
func BenchmarkAblationPointer(b *testing.B) {
	benchSetup()
	solver := benchSolver(greedy.ProblemMIS)
	for _, frac := range []float64{1e-3, 1e-1, 1.0} {
		for _, s := range []series{
			{"scratch", []greedy.Option{greedy.WithPrefixFrac(frac)}},
			{"pointer", []greedy.Option{greedy.WithPrefixFrac(frac), greedy.WithPointer()}},
		} {
			b.Run(fmt.Sprintf("%s/prefix=%g", s.name, frac), func(b *testing.B) {
				a := solve(b, solver, greedy.ProblemMIS, benchRand, s.opts...)
				b.ReportMetric(float64(a.Stats.EdgeInspections), "inspections")
			})
		}
	}
}

// Ablation AB2: every algorithm MIS and MM accept, on one input.
func BenchmarkAblationAlgorithms(b *testing.B) {
	benchSetup()
	for _, problem := range []greedy.Problem{greedy.ProblemMIS, greedy.ProblemMM} {
		solver := benchSolver(problem)
		for _, algo := range []greedy.Algorithm{greedy.AlgoSequential, greedy.AlgoRootSet, greedy.AlgoPrefix, greedy.AlgoParallel, greedy.AlgoLuby} {
			opts := []greedy.Option{greedy.WithAlgorithm(algo)}
			if algo == greedy.AlgoLuby {
				opts = luby
			}
			if problem.Check(greedy.ResolvePlan(opts...)) != nil {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", problem, algo), func(b *testing.B) { solve(b, solver, problem, benchRand, opts...) })
		}
	}
}

// Extension X1 (Section 7): spanning forest — sequential, the relaxed
// (PBBS one-root) parallel protocol at full scale, and the exact
// sequential-equivalent protocol at 1/16 scale (its hub serialization
// makes full scale impractical; that asymmetry is the experiment's
// finding). The exact protocol has no Solver entry.
func BenchmarkSpanningForest(b *testing.B) {
	benchSetup()
	solver := benchSolver(greedy.ProblemSF)
	b.Run("sequential", func(b *testing.B) { solve(b, solver, greedy.ProblemSF, benchRand, sequential) })
	b.Run("relaxed-prefix", func(b *testing.B) {
		solve(b, solver, greedy.ProblemSF, benchRand, greedy.WithPrefixFrac(0.01))
	})
	smallEl := greedy.RandomGraph(benchRandN/16, benchRandM/16, benchSeed).EdgeList()
	smallOrd := greedy.NewRandomOrder(smallEl.NumEdges(), benchSeed+3)
	b.Run("exact-prefix-1/16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(spanning.PrefixSF(context.Background(), smallEl, smallOrd, spanning.Options{Options: engine.Options{PrefixFrac: 0.001}}))
		}
	})
}

// must unwraps the result of a run under a background context, whose
// only possible error, cancellation, cannot happen.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
