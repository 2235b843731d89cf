package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	greedy "repro"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The churn matrix: the reproducible repair-vs-recompute harness of
// the dynamic-graph subsystem (BENCH_pr5.json). For each graph family
// and problem it maintains a solution under randomized update batches
// of several sizes and compares the measured repair time against a
// from-scratch sequential recompute on the mutated graph — the
// quantity the paper's shallow-dependence-cone insight predicts to be
// orders of magnitude apart for small batches. Sessions open through
// Solver.Dynamic. Verification is built in: after timed batches the
// session's Answer must match a from-scratch sequential WithDynamic
// Solve (the harness refuses to time wrong answers), exactly like the
// fixed-vs-adaptive matrix.
//
// v2 (PR 5) records the repaired-region shape per cell — visited,
// flipped, frontier peak — alongside wall time, so the report explains
// *why* a cell wins: a frontier cell beats recompute exactly when the
// flip region stays small, and loses only where churn has damaged a
// batch-sized fraction of the realized decision sequence.

// ChurnSchema identifies the report format.
const ChurnSchema = "greedy-bench-churn/v2"

// churnSeed fixes the generator and priority seeds of every scenario.
const churnSeed = 42

// ChurnScenario is one input family of the churn matrix.
type ChurnScenario struct {
	Name string `json:"name"`
	Note string `json:"note,omitempty"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	Seed uint64 `json:"seed"`

	build func() *graph.Graph
}

// ChurnScenarios returns the churn matrix inputs. The full-scale
// random family is the acceptance workload: a >= 1M-vertex uniform
// random graph on which single-edge repair must beat from-scratch
// recompute by an order of magnitude.
func ChurnScenarios(smoke bool) []ChurnScenario {
	type size struct{ n, grid int }
	sz := size{n: 1_000_000, grid: 1000}
	if smoke {
		sz = size{n: 20_000, grid: 140}
	}
	scenarios := []ChurnScenario{
		{
			Name: "random",
			Note: "uniform sparse random graph, m = 5n (the paper's first input family)",
			Seed: churnSeed,
			build: func() *graph.Graph {
				return graph.Random(sz.n, 5*sz.n, churnSeed)
			},
		},
		{
			Name: "rmat",
			Note: "rMat power-law graph, m = 5n; hub cones stress the repair BFS",
			Seed: churnSeed,
			build: func() *graph.Graph {
				return mustGenerate("rmat", sz.n, 5*sz.n, churnSeed)
			},
		},
		{
			Name: "grid",
			Note: "2-D grid: bounded degree 4, minimal cones",
			Seed: churnSeed,
			build: func() *graph.Graph {
				return graph.Grid2D(sz.grid, sz.grid)
			},
		},
	}
	// N/M metadata is filled in by RunChurn from the single shared
	// build — constructing a 1M-vertex graph just to read its sizes
	// here would triple generation work.
	return scenarios
}

// ChurnBatchSizes is the default update-batch size sweep. It extends
// past the closure engine's old crossover (batch ~256 on random-1M,
// batch 1 on rMat MM) so the report shows where — if anywhere —
// frontier repair still loses to recompute.
var ChurnBatchSizes = []int{1, 16, 256, 4096, 32768}

// ChurnSmokeBatchSizes is the smoke-scale sweep: the 20k-vertex smoke
// graphs have ~100k edges, so the 32768 axis point would churn a third
// of the graph per batch and measure compaction, not repair.
var ChurnSmokeBatchSizes = []int{1, 16, 256, 4096}

// ChurnConfig configures RunChurn.
type ChurnConfig struct {
	Smoke bool // smallest scenario sizes (CI smoke leg)
	// Reps is the recompute timing repetition count (median reported);
	// min 1.
	Reps int
	// Batches is the number of timed batches per size; 0 means 16.
	Batches int
	// BatchSizes overrides ChurnBatchSizes.
	BatchSizes []int
}

// ChurnRun aggregates one (scenario, problem, batch size) cell.
type ChurnRun struct {
	BatchSize int `json:"batch_size"`
	Batches   int `json:"batches"`
	// RepairMSMean/Max are wall times of Session.Apply (validation,
	// structural update, seed, frontier drain).
	RepairMSMean float64 `json:"repair_ms_mean"`
	RepairMSMax  float64 `json:"repair_ms_max"`
	// Machine-independent repaired-region means per batch: seeds
	// enqueued, distinct items re-decided (visited), membership flips
	// propagated, and net memberships changed.
	SeedsMean   float64 `json:"seeds_mean"`
	VisitedMean float64 `json:"visited_mean"`
	FlippedMean float64 `json:"flipped_mean"`
	ChangedMean float64 `json:"changed_mean"`
	// FrontierPeakMax is the largest pending-frontier high-water mark
	// any batch of the cell reached.
	FrontierPeakMax int `json:"frontier_peak_max"`
	// AttemptsMean is the frontier drain's mean decide attempts per
	// batch — the repair analogue of the paper's total-work measure.
	AttemptsMean float64 `json:"attempts_mean"`
	// RecomputeMS is the median from-scratch sequential Solve on the
	// post-churn graph under an explicit WithOrder (order derivation
	// excluded; materialization excluded — the recompute baseline is
	// handed the same CSR a non-dynamic job would hold). The Solver
	// caches no layout for an explicit order, so each timed run builds
	// its own.
	RecomputeMS float64 `json:"recompute_ms"`
	// SpeedupVsRecompute is RecomputeMS / RepairMSMean.
	SpeedupVsRecompute float64 `json:"speedup_vs_recompute"`
	// Verified reports that the session's answer was checked against
	// the from-scratch sequential one after this cell's batches (a
	// mismatch panics instead).
	Verified bool `json:"verified"`
}

// ChurnProblemReport aggregates one problem over a scenario.
type ChurnProblemReport struct {
	Problem string `json:"problem"`
	// InitMS is the initial from-scratch computation that opens the
	// session (the one-time session cost).
	InitMS float64    `json:"init_ms"`
	Runs   []ChurnRun `json:"runs"`
}

// ChurnScenarioReport is one scenario's full result set.
type ChurnScenarioReport struct {
	ChurnScenario
	Problems []ChurnProblemReport `json:"problems"`
}

// ChurnReport is the full harness output, the schema of
// BENCH_pr5.json.
type ChurnReport struct {
	Schema     string                `json:"schema"`
	Env        string                `json:"env"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Smoke      bool                  `json:"smoke"`
	Reps       int                   `json:"reps"`
	Batches    int                   `json:"batches"`
	BatchSizes []int                 `json:"batch_sizes"`
	Scenarios  []ChurnScenarioReport `json:"scenarios"`
}

// JSON renders the report with stable indentation.
func (r ChurnReport) JSON() []byte {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: marshal churn report: %v", err))
	}
	return append(raw, '\n')
}

// RunChurn executes the churn matrix and returns the report.
func RunChurn(cfg ChurnConfig) ChurnReport {
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	batches := cfg.Batches
	if batches <= 0 {
		batches = 16
	}
	sizes := cfg.BatchSizes
	if len(sizes) == 0 {
		if cfg.Smoke {
			sizes = ChurnSmokeBatchSizes
		} else {
			sizes = ChurnBatchSizes
		}
	}
	report := ChurnReport{
		Schema:     ChurnSchema,
		Env:        Env(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Smoke:      cfg.Smoke,
		Reps:       reps,
		Batches:    batches,
		BatchSizes: sizes,
	}
	for _, sc := range ChurnScenarios(cfg.Smoke) {
		// Build once per scenario: the sessions never mutate their base
		// graph (the overlay holds the deltas), so both problems share
		// the same immutable CSR.
		g := sc.build()
		sc.N = g.NumVertices()
		sc.M = g.NumEdges()
		sr := ChurnScenarioReport{ChurnScenario: sc}
		for _, problem := range []greedy.Problem{greedy.ProblemMIS, greedy.ProblemMM} {
			sr.Problems = append(sr.Problems, runChurnProblem(problem, g, sizes, batches, reps, cfg.Smoke))
		}
		report.Scenarios = append(report.Scenarios, sr)
	}
	return report
}

// ChurnMutator mirrors a graph's edge set and draws valid randomized
// update batches for churn workloads. Draw produces a batch without
// touching the mirror; Commit applies a drawn batch — so a caller
// whose remote application can fail (cmd/loadgen's PATCH churner)
// simply drops an unaccepted batch, and the harness commits right
// after a successful Session.Apply. Shared by this harness and
// cmd/loadgen so the two churn drivers cannot drift.
type ChurnMutator struct {
	x     *rng.Xoshiro256
	edges []graph.Edge     // live edges, canonical U < V
	idx   map[uint64]int32 // canonical key -> position in edges
	n     int
}

// NewChurnMutator mirrors g's current edge set.
func NewChurnMutator(g *graph.Graph, seed uint64) *ChurnMutator {
	edges := g.Edges()
	idx := make(map[uint64]int32, len(edges))
	for i, e := range edges {
		idx[churnKey(e.U, e.V)] = int32(i)
	}
	return &ChurnMutator{x: rng.NewXoshiro256(seed), edges: edges, idx: idx, n: g.NumVertices()}
}

func churnKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Draw returns a valid batch of up to k updates (≈50/50
// insert/delete, no edge repeated) against the mirror, without
// applying it. The draw is attempt-bounded so a graph with fewer than
// k distinct legal updates cannot spin the generator.
func (cm *ChurnMutator) Draw(k int) []dynamic.Update {
	batch := make([]dynamic.Update, 0, k)
	inBatch := make(map[uint64]bool, k)
	for attempts := 0; len(batch) < k && attempts < 64*k; attempts++ {
		if len(cm.edges) > 0 && cm.x.Intn(2) == 0 {
			e := cm.edges[cm.x.Intn(len(cm.edges))]
			key := churnKey(e.U, e.V)
			if inBatch[key] {
				continue
			}
			inBatch[key] = true
			batch = append(batch, dynamic.Update{Op: dynamic.OpDel, U: e.U, V: e.V})
		} else {
			u := int32(cm.x.Intn(cm.n))
			v := int32(cm.x.Intn(cm.n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := churnKey(u, v)
			if inBatch[key] {
				continue
			}
			if _, present := cm.idx[key]; present {
				continue
			}
			inBatch[key] = true
			batch = append(batch, dynamic.Update{Op: dynamic.OpAdd, U: u, V: v})
		}
	}
	return batch
}

// Commit applies a drawn batch to the mirror. Call it exactly once
// per batch the graph's owner actually accepted.
func (cm *ChurnMutator) Commit(batch []dynamic.Update) {
	for _, up := range batch {
		u, v := up.U, up.V
		if u > v {
			u, v = v, u
		}
		key := churnKey(u, v)
		if up.Op == dynamic.OpAdd {
			cm.idx[key] = int32(len(cm.edges))
			cm.edges = append(cm.edges, graph.Edge{U: u, V: v})
			continue
		}
		i := cm.idx[key]
		last := cm.edges[len(cm.edges)-1]
		cm.edges[i] = last
		cm.idx[churnKey(last.U, last.V)] = i
		cm.edges = cm.edges[:len(cm.edges)-1]
		delete(cm.idx, key)
	}
}

// runChurnProblem benchmarks one problem on one scenario graph across
// the batch-size sweep.
func runChurnProblem(problem greedy.Problem, g *graph.Graph, sizes []int, batches, reps int, verifyEvery bool) ChurnProblemReport {
	ctx := context.Background()
	solver := greedy.NewSolver(greedy.WithSeed(churnSeed))
	initStart := time.Now()
	sess, err := solver.Dynamic(ctx, problem, g)
	if err != nil {
		panic(fmt.Sprintf("bench: churn init: %v", err))
	}
	pr := ChurnProblemReport{
		Problem: string(problem),
		InitMS:  float64(time.Since(initStart).Microseconds()) / 1000.0,
	}
	cm := NewChurnMutator(g, churnSeed+1)
	// The initial computation leaves hundreds of MB of garbage at full
	// scale; settle it now so the first timed batch measures repair,
	// not a collection of the initializer's trash.
	runtime.GC()
	for _, size := range sizes {
		run := ChurnRun{BatchSize: size, Batches: batches}
		var totalMS, maxMS float64
		var seeds, visited, flipped, changed, attempts int64
		for b := 0; b < batches; b++ {
			batch := cm.Draw(size)
			start := time.Now()
			st, aerr := sess.Apply(ctx, batch)
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			if aerr != nil {
				panic(fmt.Sprintf("bench: churn apply: %v", aerr))
			}
			cm.Commit(batch)
			totalMS += ms
			if ms > maxMS {
				maxMS = ms
			}
			cost := st.Cost()
			seeds += int64(cost.Seeds)
			visited += int64(cost.Visited)
			flipped += int64(cost.Flipped)
			changed += int64(cost.Changed)
			attempts += cost.Attempts
			run.FrontierPeakMax = max(run.FrontierPeakMax, cost.FrontierPeak)
			if verifyEvery {
				verifyChurn(solver, sess)
			}
		}
		run.RepairMSMean = totalMS / float64(batches)
		run.RepairMSMax = maxMS
		run.SeedsMean = float64(seeds) / float64(batches)
		run.VisitedMean = float64(visited) / float64(batches)
		run.FlippedMean = float64(flipped) / float64(batches)
		run.ChangedMean = float64(changed) / float64(batches)
		run.AttemptsMean = float64(attempts) / float64(batches)

		// From-scratch baseline on the post-churn graph: the sequential
		// greedy solve a non-dynamic job would run, on an already
		// materialized CSR with an already derived order. Settle the
		// materialization/derivation garbage before timing for the same
		// reason as above.
		in := greedy.GraphInput(sess.Graph())
		var ord greedy.Order
		if problem == greedy.ProblemMIS {
			ord = greedy.NewRandomOrder(in.Graph().NumVertices(), churnSeed)
		} else {
			ord = greedy.DynamicEdgeOrder(in.EdgeList(), churnSeed)
		}
		runtime.GC()
		run.RecomputeMS = medianMS(reps, func() {
			must(solver.Solve(ctx, problem, in, greedy.WithOrder(ord), greedy.WithAlgorithm(greedy.AlgoSequential)))
		})
		if run.RepairMSMean > 0 {
			run.SpeedupVsRecompute = run.RecomputeMS / run.RepairMSMean
		}
		// Verify at least once per cell (every batch in smoke mode).
		verifyChurn(solver, sess)
		run.Verified = true
		pr.Runs = append(pr.Runs, run)
	}
	return pr
}

// verifyChurn panics unless the session's answer matches a
// from-scratch sequential WithDynamic Solve on the current graph.
func verifyChurn(solver *greedy.Solver, sess *greedy.Session) {
	got := sess.Answer()
	want := must(solver.Solve(context.Background(), got.Problem, greedy.GraphInput(sess.Graph()),
		greedy.WithDynamic(), greedy.WithAlgorithm(greedy.AlgoSequential)))
	if !got.Matches(want) {
		panic(fmt.Sprintf("bench: churn %s session diverged from a sequential solve", got.Problem))
	}
}

// ChurnAssertion pins a minimum repair-vs-recompute speedup for one
// (scenario, problem, batch-size) cell — the CI regression guard for
// cells that past engines lost (the closure engine's rMat MM
// single-edge cell was break-even).
type ChurnAssertion struct {
	Scenario   string
	Problem    string
	BatchSize  int
	MinSpeedup float64
}

// ParseChurnAssertion parses "scenario:problem:batch:minSpeedup",
// e.g. "rmat:mm:1:1.0". Malformed numeric fields (including trailing
// garbage) are rejected — a mistyped regression guard must fail at
// parse time, not silently pin the wrong cell.
func ParseChurnAssertion(s string) (ChurnAssertion, error) {
	var a ChurnAssertion
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return a, fmt.Errorf("bench: assertion %q: want scenario:problem:batch:minSpeedup", s)
	}
	a.Scenario, a.Problem = parts[0], parts[1]
	batch, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return a, fmt.Errorf("bench: assertion %q: bad batch size: %v", s, err)
	}
	a.BatchSize = batch
	min, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
	if err != nil {
		return a, fmt.Errorf("bench: assertion %q: bad min speedup: %v", s, err)
	}
	a.MinSpeedup = min
	return a, nil
}

// CheckAssertions evaluates the assertions against the report and
// returns one failure message per violated or unmatched assertion.
func (r ChurnReport) CheckAssertions(asserts []ChurnAssertion) []string {
	var failures []string
	for _, a := range asserts {
		found := false
		for _, sc := range r.Scenarios {
			if sc.Name != a.Scenario {
				continue
			}
			for _, p := range sc.Problems {
				if p.Problem != a.Problem {
					continue
				}
				for _, run := range p.Runs {
					if run.BatchSize != a.BatchSize {
						continue
					}
					found = true
					if run.SpeedupVsRecompute < a.MinSpeedup {
						failures = append(failures, fmt.Sprintf(
							"%s %s batch %d: repair speedup %.2fx < required %.2fx (repair %.3fms vs recompute %.3fms)",
							a.Scenario, a.Problem, a.BatchSize, run.SpeedupVsRecompute, a.MinSpeedup,
							run.RepairMSMean, run.RecomputeMS))
					}
				}
			}
		}
		if !found {
			failures = append(failures, fmt.Sprintf(
				"%s %s batch %d: no such cell in the report (batch sizes %v)",
				a.Scenario, a.Problem, a.BatchSize, r.BatchSizes))
		}
	}
	return failures
}

// ChurnTable renders the repair-vs-recompute comparison for terminal
// output and the docs.
func ChurnTable(r ChurnReport) Table {
	t := Table{
		Title:   fmt.Sprintf("churn matrix: incremental repair vs from-scratch recompute [%s]", r.Env),
		Headers: []string{"scenario", "problem", "batch", "repair mean", "repair max", "visited", "flipped", "peak", "recompute", "speedup"},
	}
	for _, sc := range r.Scenarios {
		for _, p := range sc.Problems {
			for _, run := range p.Runs {
				t.Rows = append(t.Rows, []string{
					sc.Name, p.Problem,
					fmt.Sprintf("%d", run.BatchSize),
					fmt.Sprintf("%.3fms", run.RepairMSMean),
					fmt.Sprintf("%.3fms", run.RepairMSMax),
					fmtFloat(run.VisitedMean),
					fmtFloat(run.FlippedMean),
					fmt.Sprintf("%d", run.FrontierPeakMax),
					fmt.Sprintf("%.2fms", run.RecomputeMS),
					fmt.Sprintf("%.0fx", run.SpeedupVsRecompute),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"repair = Session.Apply wall time (validate + mutate + frontier drain), mean over the timed batches",
		"recompute = median from-scratch sequential solve on the post-churn graph (CSR and priority order already in hand; the solve builds its rank-space layout)",
		"visited/flipped = mean items re-decided and mean membership flips propagated per batch; peak = max pending frontier; every cell is verified against a sequential solve before it is reported",
	)
	return t
}
