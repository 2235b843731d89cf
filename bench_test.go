// Benchmarks reproducing every figure of Blelloch, Fineman and Shun
// (SPAA 2012). Each BenchmarkFigXY corresponds to one panel; DESIGN.md
// section 4 is the index. Inputs are scaled to 1/100 of the paper's so
// the full suite runs on a small container; cmd/bench runs the same
// experiments at configurable scale and EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Machine-independent quantities (work/N, rounds/N) are attached to the
// timing benchmarks via b.ReportMetric, so `go test -bench=.` regenerates
// both the time series and the counter series of each figure.
package greedy_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	greedy "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matching"
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
	benchRand  *greedy.Graph
	benchRMat  *greedy.Graph
	ordRandV   greedy.Order
	ordRMatV   greedy.Order
	elRand     greedy.EdgeList
	elRMat     greedy.EdgeList
	ordRandE   greedy.Order
	ordRMatE   greedy.Order
	sweepFracs = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0}
)

func benchSetup() {
	graphOnce.Do(func() {
		benchRand = greedy.RandomGraph(benchRandN, benchRandM, benchSeed)
		benchRMat = greedy.RMatGraph(benchRMatLog, benchRMatM, benchSeed)
		ordRandV = greedy.NewRandomOrder(benchRand.NumVertices(), benchSeed+1)
		ordRMatV = greedy.NewRandomOrder(benchRMat.NumVertices(), benchSeed+1)
		elRand = benchRand.EdgeList()
		elRMat = benchRMat.EdgeList()
		ordRandE = greedy.NewRandomOrder(elRand.NumEdges(), benchSeed+2)
		ordRMatE = greedy.NewRandomOrder(elRMat.NumEdges(), benchSeed+2)
	})
}

// misPrefixPanel benches PrefixMIS across the sweep fractions on one
// graph, reporting the figure's three series (time via ns/op, work/N and
// rounds/N via metrics).
func misPrefixPanel(b *testing.B, g *greedy.Graph, ord greedy.Order) {
	n := g.NumVertices()
	for _, frac := range sweepFracs {
		b.Run(fmt.Sprintf("prefix=%g", frac), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = must(core.PrefixMIS(context.Background(), g, ord, core.Options{Options: engine.Options{PrefixFrac: frac}}))
			}
			b.ReportMetric(float64(res.Stats.Attempts)/float64(n), "work/N")
			b.ReportMetric(float64(res.Stats.Rounds)/float64(n), "rounds/N")
		})
	}
}

func mmPrefixPanel(b *testing.B, el greedy.EdgeList, ord greedy.Order) {
	m := el.NumEdges()
	for _, frac := range sweepFracs {
		b.Run(fmt.Sprintf("prefix=%g", frac), func(b *testing.B) {
			var res *matching.Result
			for i := 0; i < b.N; i++ {
				res = must(matching.PrefixMM(context.Background(), el, ord, matching.Options{Options: engine.Options{PrefixFrac: frac}}))
			}
			b.ReportMetric(float64(res.Stats.Attempts)/float64(m), "work/M")
			b.ReportMetric(float64(res.Stats.Rounds)/float64(m), "rounds/M")
		})
	}
}

// Figure 1(a-c): MIS work, rounds, time vs prefix size — random graph.
func BenchmarkFig1aMISWorkRandom(b *testing.B) { benchSetup(); misPrefixPanel(b, benchRand, ordRandV) }
func BenchmarkFig1bMISRoundsRandom(b *testing.B) {
	benchSetup()
	misPrefixPanel(b, benchRand, ordRandV)
}
func BenchmarkFig1cMISTimeRandom(b *testing.B) { benchSetup(); misPrefixPanel(b, benchRand, ordRandV) }

// Figure 1(d-f): the same on the rMat graph.
func BenchmarkFig1dMISWorkRMat(b *testing.B)   { benchSetup(); misPrefixPanel(b, benchRMat, ordRMatV) }
func BenchmarkFig1eMISRoundsRMat(b *testing.B) { benchSetup(); misPrefixPanel(b, benchRMat, ordRMatV) }
func BenchmarkFig1fMISTimeRMat(b *testing.B)   { benchSetup(); misPrefixPanel(b, benchRMat, ordRMatV) }

// Figure 2(a-c): MM work, rounds, time vs prefix size — random graph.
func BenchmarkFig2aMMWorkRandom(b *testing.B)   { benchSetup(); mmPrefixPanel(b, elRand, ordRandE) }
func BenchmarkFig2bMMRoundsRandom(b *testing.B) { benchSetup(); mmPrefixPanel(b, elRand, ordRandE) }
func BenchmarkFig2cMMTimeRandom(b *testing.B)   { benchSetup(); mmPrefixPanel(b, elRand, ordRandE) }

// Figure 2(d-f): the same on the rMat graph.
func BenchmarkFig2dMMWorkRMat(b *testing.B)   { benchSetup(); mmPrefixPanel(b, elRMat, ordRMatE) }
func BenchmarkFig2eMMRoundsRMat(b *testing.B) { benchSetup(); mmPrefixPanel(b, elRMat, ordRMatE) }
func BenchmarkFig2fMMTimeRMat(b *testing.B)   { benchSetup(); mmPrefixPanel(b, elRMat, ordRMatE) }

// misThreadsPanel benches the three Figure-3 series at each thread
// count.
func misThreadsPanel(b *testing.B, g *greedy.Graph, ord greedy.Order) {
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d/prefixMIS", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				must(core.PrefixMIS(context.Background(), g, ord, core.Options{}))
			}
		})
		b.Run(fmt.Sprintf("threads=%d/luby", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				must(core.LubyMIS(context.Background(), g, benchSeed+9, core.Options{}))
			}
		})
		b.Run(fmt.Sprintf("threads=%d/serialMIS", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				must(core.SequentialMIS(context.Background(), g, ord, core.Options{}))
			}
		})
	}
}

// Figure 3: MIS running time vs threads (prefix-based vs Luby vs serial).
func BenchmarkFig3aMISThreadsRandom(b *testing.B) {
	benchSetup()
	misThreadsPanel(b, benchRand, ordRandV)
}
func BenchmarkFig3bMISThreadsRMat(b *testing.B) {
	benchSetup()
	misThreadsPanel(b, benchRMat, ordRMatV)
}

func mmThreadsPanel(b *testing.B, el greedy.EdgeList, ord greedy.Order) {
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d/prefixMM", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				must(matching.PrefixMM(context.Background(), el, ord, matching.Options{}))
			}
		})
		b.Run(fmt.Sprintf("threads=%d/serialMM", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				must(matching.SequentialMM(context.Background(), el, ord, matching.Options{}))
			}
		})
	}
}

// Figure 4: MM running time vs threads (prefix-based vs serial).
func BenchmarkFig4aMMThreadsRandom(b *testing.B) { benchSetup(); mmThreadsPanel(b, elRand, ordRandE) }
func BenchmarkFig4bMMThreadsRMat(b *testing.B)   { benchSetup(); mmThreadsPanel(b, elRMat, ordRMatE) }

// In-text claim T1: the prefix-based MIS does less work than Luby
// (paper: 4-8x faster); the metric reports the inspection ratio.
func BenchmarkTextMISvsLuby(b *testing.B) {
	benchSetup()
	pref := must(core.PrefixMIS(context.Background(), benchRand, ordRandV, core.Options{}))
	luby := must(core.LubyMIS(context.Background(), benchRand, benchSeed+9, core.Options{}))
	b.Run("prefixMIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.PrefixMIS(context.Background(), benchRand, ordRandV, core.Options{}))
		}
		b.ReportMetric(float64(luby.Stats.EdgeInspections)/float64(pref.Stats.EdgeInspections), "luby-inspect-ratio")
	})
	b.Run("luby", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.LubyMIS(context.Background(), benchRand, benchSeed+9, core.Options{}))
		}
	})
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
	for _, frac := range []float64{1e-3, 1e-1, 1.0} {
		b.Run(fmt.Sprintf("scratch/prefix=%g", frac), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = must(core.PrefixMIS(context.Background(), benchRand, ordRandV, core.Options{Options: engine.Options{PrefixFrac: frac}}))
			}
			b.ReportMetric(float64(res.Stats.EdgeInspections), "inspections")
		})
		b.Run(fmt.Sprintf("pointer/prefix=%g", frac), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = must(core.PrefixMIS(context.Background(), benchRand, ordRandV, core.Options{Options: engine.Options{PrefixFrac: frac}, Pointered: true}))
			}
			b.ReportMetric(float64(res.Stats.EdgeInspections), "inspections")
		})
	}
}

// Ablation AB2: the MIS implementation family on one input.
func BenchmarkAblationAlgorithms(b *testing.B) {
	benchSetup()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.SequentialMIS(context.Background(), benchRand, ordRandV, core.Options{}))
		}
	})
	b.Run("rootset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.RootSetMIS(context.Background(), benchRand, ordRandV, core.Options{}))
		}
	})
	b.Run("prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.PrefixMIS(context.Background(), benchRand, ordRandV, core.Options{}))
		}
	})
	b.Run("parallel-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.ParallelMIS(context.Background(), benchRand, ordRandV, core.Options{}))
		}
	})
	b.Run("luby", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.LubyMIS(context.Background(), benchRand, benchSeed+9, core.Options{}))
		}
	})
}

// Extension X1 (Section 7): spanning forest — sequential, the relaxed
// (PBBS one-root) parallel protocol at full scale, and the exact
// sequential-equivalent protocol at 1/16 scale (its hub serialization
// makes full scale impractical; that asymmetry is the experiment's
// finding).
func BenchmarkSpanningForest(b *testing.B) {
	benchSetup()
	ord := greedy.NewRandomOrder(elRand.NumEdges(), benchSeed+3)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(spanning.SequentialSF(context.Background(), elRand, ord, spanning.Options{}))
		}
	})
	b.Run("relaxed-prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(spanning.PrefixSFRelaxed(context.Background(), elRand, ord, spanning.Options{Options: engine.Options{PrefixFrac: 0.01}}))
		}
	})
	smallG := greedy.RandomGraph(benchRandN/16, benchRandM/16, benchSeed)
	smallEl := smallG.EdgeList()
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
