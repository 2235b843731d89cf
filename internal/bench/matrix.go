package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	greedy "repro"
	"repro/internal/graph"
)

// The scenario matrix: a reproducible fixed-vs-adaptive prefix harness
// over several graph families, emitting a machine-readable JSON report
// (BENCH_pr3.json) that later PRs diff against. All generator and
// permutation seeds are fixed, so the machine-independent columns
// (rounds, attempts, inspections, window trace, sizes, match flags)
// are bit-stable across machines; only the wall-time columns move.

// MatrixSchema identifies the report format.
const MatrixSchema = "greedy-bench-matrix/v1"

// matrixSeed fixes every scenario's generator seed; the priority
// permutation uses matrixSeed+1 via the library default seeding.
const matrixSeed = 42

// Scenario is one input family of the matrix.
type Scenario struct {
	Name string `json:"name"`
	Note string `json:"note,omitempty"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	Seed uint64 `json:"seed"`

	build func() *graph.Graph
}

// MatrixScenarios returns the scenario matrix at full or smoke scale:
// the paper's two families (uniform random, rMat power-law), a
// bounded-degree 2-D grid, and the line graph of a random graph (MIS on
// it is MM on the base graph, the paper's Lemma 5.1 reduction — a
// high-conflict input for the window controller).
func MatrixScenarios(smoke bool) []Scenario {
	type size struct{ n, grid, lineN int }
	sz := size{n: 200_000, grid: 448, lineN: 20_000}
	if smoke {
		sz = size{n: 4_000, grid: 64, lineN: 800}
	}
	scenarios := []Scenario{
		{
			Name: "random",
			Note: "uniform sparse random graph, m = 5n (the paper's first input family)",
			Seed: matrixSeed,
			build: func() *graph.Graph {
				return graph.Random(sz.n, 5*sz.n, matrixSeed)
			},
		},
		{
			Name: "rmat",
			Note: "rMat power-law graph, m = 5n (the paper's second input family)",
			Seed: matrixSeed,
			build: func() *graph.Graph {
				logN := 0
				for 1<<logN < sz.n {
					logN++
				}
				return graph.RMat(logN, 5*sz.n, matrixSeed)
			},
		},
		{
			Name: "grid",
			Note: "2-D grid: bounded degree 4, long dependence chains",
			Seed: matrixSeed,
			build: func() *graph.Graph {
				return graph.Grid2D(sz.grid, sz.grid)
			},
		},
		{
			Name: "linegraph",
			Note: "line graph of a random graph (MIS here = MM on the base, Lemma 5.1); degree-inflated, conflict-heavy",
			Seed: matrixSeed,
			build: func() *graph.Graph {
				base := graph.Random(sz.lineN, 3*sz.lineN, matrixSeed)
				lg, _ := graph.LineGraph(base)
				return lg
			},
		},
	}
	for i := range scenarios {
		g := scenarios[i].build()
		scenarios[i].N = g.NumVertices()
		scenarios[i].M = g.NumEdges()
	}
	return scenarios
}

// MatrixFracs is the fixed-prefix sweep each adaptive run is compared
// against: the paper's near-optimal band (1e-3..1e-2) plus one point
// above it.
var MatrixFracs = []float64{0.001, 0.005, 0.02}

// MatrixConfig configures RunMatrix.
type MatrixConfig struct {
	Smoke bool      // smallest scenario sizes (CI smoke leg)
	Reps  int       // timing repetitions, median reported (min 1)
	Fracs []float64 // fixed prefix fractions; nil means MatrixFracs
}

// RunReport is one (scenario, problem, schedule) execution.
type RunReport struct {
	// Config labels the run: "seq", "frac=0.005", or "adaptive".
	Config   string `json:"config"`
	Adaptive bool   `json:"adaptive,omitempty"`
	// PrefixMax is Stats.PrefixSize: the fixed window, or the largest
	// window an adaptive controller reached.
	PrefixMax   int     `json:"prefix_max,omitempty"`
	Rounds      int64   `json:"rounds"`
	Attempts    int64   `json:"attempts"`
	Inspections int64   `json:"inspections"`
	TimeMS      float64 `json:"time_ms"`
	Size        int     `json:"size"`
	// Matches reports bit-identical agreement with the sequential
	// greedy result (always true for MIS/MM; for the relaxed spanning
	// forest it reports size agreement, the invariant any valid forest
	// satisfies, with validity checked separately).
	Matches bool `json:"matches"`
	// Windows is the COMPLETE per-round window schedule of an adaptive
	// run, run-length encoded (the schedule is long runs of a doubling
	// then steady window, so this stays small at any round count) — the
	// bit-stable trajectory later PRs diff. WindowsTruncated marks the
	// pathological case of more than windowTraceCap distinct runs.
	Windows          []WindowRun `json:"windows,omitempty"`
	WindowsTruncated bool        `json:"windows_truncated,omitempty"`
}

// WindowRun is one run-length-encoded span of the window schedule:
// Rounds consecutive rounds executed at Window.
type WindowRun struct {
	Window int `json:"window"`
	Rounds int `json:"rounds"`
}

// ProblemReport aggregates one problem over a scenario.
type ProblemReport struct {
	Problem string      `json:"problem"`
	Runs    []RunReport `json:"runs"`
	// AdaptiveVsBestFixedTime is adaptive wall time divided by the best
	// fixed-prefix wall time (< 1 means adaptive won).
	AdaptiveVsBestFixedTime float64 `json:"adaptive_vs_best_fixed_time"`
	// AdaptiveVsBestFixedWork is the same ratio over Attempts.
	AdaptiveVsBestFixedWork float64 `json:"adaptive_vs_best_fixed_work"`
	// Cold is the default plan timed under a fresh seed per repetition,
	// so each solve derives its order and builds its layout (coldRun).
	// ColdVsSeqTime is its time divided by the sequential run's.
	Cold          RunReport `json:"cold"`
	ColdVsSeqTime float64   `json:"cold_vs_seq_time"`
}

// ScenarioReport is one scenario's full result set.
type ScenarioReport struct {
	Scenario
	Problems []ProblemReport `json:"problems"`
}

// MatrixReport is the full harness output, the schema of BENCH_pr3.json.
type MatrixReport struct {
	Schema     string           `json:"schema"`
	Env        string           `json:"env"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Smoke      bool             `json:"smoke"`
	Reps       int              `json:"reps"`
	Fracs      []float64        `json:"fracs"`
	Scenarios  []ScenarioReport `json:"scenarios"`
}

// JSON renders the report with stable indentation.
func (r MatrixReport) JSON() []byte {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: marshal matrix report: %v", err))
	}
	return append(raw, '\n')
}

// windowTraceCap bounds the number of run-length spans recorded per
// run; a schedule with more distinct spans than this (which would take
// a window oscillating every round for hundreds of rounds) is marked
// truncated instead of silently cut.
const windowTraceCap = 256

// RunMatrix executes the scenario matrix and returns the report.
// Verification is built in: an invalid answer, or a fixed or adaptive
// one that does not match the sequential answer (Answer.Matches),
// panics — the harness refuses to time wrong answers.
func RunMatrix(cfg MatrixConfig) MatrixReport {
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	fracs := cfg.Fracs
	if len(fracs) == 0 {
		fracs = MatrixFracs
	}
	report := MatrixReport{
		Schema:     MatrixSchema,
		Env:        Env(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Smoke:      cfg.Smoke,
		Reps:       reps,
		Fracs:      fracs,
	}
	for _, sc := range MatrixScenarios(cfg.Smoke) {
		// The edge list and hitting-set system are derived on the first
		// (untimed) run that reads them, not charged to solve times.
		in := greedy.GraphInput(sc.build())
		sr := ScenarioReport{Scenario: sc}
		for _, problem := range greedy.Problems() {
			sr.Problems = append(sr.Problems, runProblem(problem, in, fracs, reps))
		}
		report.Scenarios = append(report.Scenarios, sr)
	}
	return report
}

// runProblem benchmarks one problem on one graph across the schedule
// configurations.
func runProblem(problem greedy.Problem, in greedy.Input, fracs []float64, reps int) ProblemReport {
	pr := ProblemReport{Problem: string(problem)}
	solver := greedy.NewSolver()
	run := func(seq *executed, opts ...greedy.Option) *executed {
		return execute(problem, solver, in, seq, opts...)
	}

	seq := run(nil, greedy.WithAlgorithm(greedy.AlgoSequential))
	if verr := seq.answer.Verify(in); verr != nil {
		panic(fmt.Sprintf("bench: sequential %s invalid: %v", problem, verr))
	}
	seq.run.Config = "seq"
	seq.run.TimeMS = medianMS(reps, func() {
		run(nil, greedy.WithAlgorithm(greedy.AlgoSequential))
	})
	pr.Runs = append(pr.Runs, seq.run)

	bestFixedTime := 0.0
	bestFixedWork := int64(0)
	for _, frac := range fracs {
		r := run(seq, greedy.WithPrefixFrac(frac))
		r.run.Config = fmt.Sprintf("frac=%g", frac)
		r.run.TimeMS = medianMS(reps, func() {
			run(nil, greedy.WithPrefixFrac(frac))
		})
		pr.Runs = append(pr.Runs, r.run)
		if bestFixedTime == 0 || r.run.TimeMS < bestFixedTime {
			bestFixedTime = r.run.TimeMS
		}
		if bestFixedWork == 0 || r.run.Attempts < bestFixedWork {
			bestFixedWork = r.run.Attempts
		}
	}

	ad := run(seq, greedy.WithAdaptivePrefix())
	ad.run.Config = "adaptive"
	ad.run.Adaptive = true
	ad.run.TimeMS = medianMS(reps, func() {
		run(nil, greedy.WithAdaptivePrefix())
	})
	pr.Runs = append(pr.Runs, ad.run)

	if bestFixedTime > 0 {
		pr.AdaptiveVsBestFixedTime = ad.run.TimeMS / bestFixedTime
	}
	if bestFixedWork > 0 {
		pr.AdaptiveVsBestFixedWork = float64(ad.run.Attempts) / float64(bestFixedWork)
	}

	pr.Cold = coldRun(problem, solver, in, reps, greedy.AlgoPrefix, coldSeed)
	if seq.run.TimeMS > 0 {
		pr.ColdVsSeqTime = pr.Cold.TimeMS / seq.run.TimeMS
	}
	return pr
}

// executed carries one run's report row plus its answer, for
// cross-run comparison.
type executed struct {
	run    RunReport
	answer greedy.Answer
}

// execute runs one configuration once, recording counters, the window
// trajectory, and agreement with the sequential baseline seq (nil
// skips verification — the timing path). Invalid answers, and answers
// that do not match the sequential one, panic.
func execute(problem greedy.Problem, solver *greedy.Solver, in greedy.Input, seq *executed, opts ...greedy.Option) *executed {
	out := &executed{run: RunReport{Matches: true}}
	plan := greedy.ResolvePlan(opts...)
	if plan.AdaptivePrefix && seq != nil {
		opts = append(opts, greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
			w := out.run.Windows
			if n := len(w); n > 0 && w[n-1].Window == ri.PrefixSize {
				w[n-1].Rounds++
				return
			}
			if len(w) >= windowTraceCap {
				out.run.WindowsTruncated = true
				return
			}
			out.run.Windows = append(w, WindowRun{Window: ri.PrefixSize, Rounds: 1})
		}))
	}
	a, err := solver.Solve(context.Background(), problem, in, opts...)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", problem, err))
	}
	if seq != nil {
		if verr := a.Verify(in); verr != nil {
			panic(fmt.Sprintf("bench: %s %s invalid: %v", plan.Algorithm, problem, verr))
		}
		if !a.Matches(seq.answer) {
			panic(fmt.Sprintf("bench: %s %s differs from sequential", plan.Algorithm, problem))
		}
	}
	out.answer = a
	out.run.Size = a.Size
	out.run.PrefixMax = a.Stats.PrefixSize
	out.run.Rounds = a.Stats.Rounds
	out.run.Attempts = a.Stats.Attempts
	out.run.Inspections = a.Stats.EdgeInspections
	return out
}

// MatrixTable renders a compact fixed-vs-adaptive comparison of the
// report for terminal output and the docs.
func MatrixTable(r MatrixReport) Table {
	t := Table{
		Title:   fmt.Sprintf("scenario matrix: fixed vs adaptive prefix [%s]", r.Env),
		Headers: []string{"scenario", "problem", "config", "prefixMax", "rounds", "work/n", "inspect", "time", "vsBestFixed"},
	}
	for _, sc := range r.Scenarios {
		for _, p := range sc.Problems {
			// A sequential run attempts every item once, so its attempts
			// count the problem's items: vertices, edges or elements.
			items := p.Runs[0].Attempts
			for _, run := range append(p.Runs[:len(p.Runs):len(p.Runs)], p.Cold) {
				vs := ""
				switch {
				case run.Adaptive:
					vs = fmt.Sprintf("%.2fx time, %.2fx work", p.AdaptiveVsBestFixedTime, p.AdaptiveVsBestFixedWork)
				case run.Config == "cold":
					vs = fmt.Sprintf("%.2fx seq time", p.ColdVsSeqTime)
				}
				t.Rows = append(t.Rows, []string{
					sc.Name, p.Problem, run.Config,
					fmt.Sprintf("%d", run.PrefixMax),
					fmt.Sprintf("%d", run.Rounds),
					fmtFloat(float64(run.Attempts) / float64(items)),
					fmt.Sprintf("%d", run.Inspections),
					fmt.Sprintf("%.2fms", run.TimeMS),
					vs,
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"work/n normalizes attempts by the problem's item count (vertices for MIS, edges for MM/SF), the sequential run's attempts; sequential is 1.0 by definition",
		"adaptive windows start at 256 (or the explicit prefix) and double while >=90% of attempts resolve; vsBestFixed compares against the best fixed fraction benchmarked",
		"cold runs the default plan under a fresh seed per repetition, paying the order and the layout; its counters are the first seed's",
	)
	return t
}

// medianMS times f like MedianTime but returns milliseconds.
func medianMS(reps int, f func()) float64 {
	return float64(MedianTime(reps, f).Microseconds()) / 1000.0
}
