package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	greedy "repro"
)

// Small workloads keep harness unit tests fast; the real sizes are
// exercised by cmd/bench and the root bench_test.go.
func smallRandom() Workload { return Workload{Kind: "random", N: 5000, M: 25000, Seed: 7} }
func smallRMat() Workload   { return Workload{Kind: "rmat", N: 1 << 12, M: 20000, Seed: 7} }

func TestTableString(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Headers: []string{"a", "longheader"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"demo", "longheader", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestMedianTime(t *testing.T) {
	d := MedianTime(3, func() { time.Sleep(time.Millisecond) })
	if d < 500*time.Microsecond {
		t.Errorf("median = %v, suspiciously small", d)
	}
	if MedianTime(0, func() {}) < 0 {
		t.Error("negative duration")
	}
}

func TestWorkloadBuild(t *testing.T) {
	g := smallRandom().Build()
	if g.NumVertices() != 5000 || g.NumEdges() != 25000 {
		t.Errorf("random workload built %d/%d", g.NumVertices(), g.NumEdges())
	}
	r := smallRMat().Build()
	if r.NumVertices() != 1<<12 || r.NumEdges() != 20000 {
		t.Errorf("rmat workload built %d/%d", r.NumVertices(), r.NumEdges())
	}
}

// TestWorkloadStringNamesBuiltGraph checks that a workload's title
// names the vertex count Build generates, which for rMat is N rounded up
// to a power of two.
func TestWorkloadStringNamesBuiltGraph(t *testing.T) {
	for _, w := range []Workload{
		{Kind: "rmat", N: 3000, M: 9000, Seed: 1},
		{Kind: "random", N: 3000, M: 9000, Seed: 1},
	} {
		want := fmt.Sprintf("%s(n=%d, m=9000, seed=1)", w.Kind, w.Build().NumVertices())
		if got := w.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestDefaultScale(t *testing.T) {
	w := DefaultScale("random", 0)
	if w.N != 10_000_000 || w.M != 50_000_000 {
		t.Errorf("paper-size random workload = %+v", w)
	}
	w4 := DefaultScale("rmat", 4)
	if w4.N != 1<<20 {
		t.Errorf("rmat shrink-4 n = %d, want 2^20", w4.N)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kind accepted")
		}
	}()
	DefaultScale("nope", 0)
}

func TestMISPrefixSweepRuns(t *testing.T) {
	tab := PrefixSweep(greedy.ProblemMIS, SweepConfig{
		Workload: smallRandom(),
		Fracs:    []float64{1e-3, 0.1, 1.0},
		Reps:     1,
	})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// work/N at the largest prefix must be >= work at the smallest.
	lo, errLo := strconv.ParseFloat(tab.Rows[0][2], 64)
	hi, errHi := strconv.ParseFloat(tab.Rows[2][2], 64)
	if errLo != nil || errHi != nil {
		t.Fatalf("work cells %q, %q do not parse", tab.Rows[0][2], tab.Rows[2][2])
	}
	if lo > hi {
		t.Errorf("work did not grow with prefix: %v vs %v", lo, hi)
	}
}

func TestMMPrefixSweepRuns(t *testing.T) {
	tab := PrefixSweep(greedy.ProblemMM, SweepConfig{
		Workload: smallRandom(),
		Fracs:    []float64{1e-2, 1.0},
		Reps:     1,
	})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestPrefixSweepRuns(t *testing.T) {
	for _, problem := range greedy.Problems() {
		tab := PrefixSweep(problem, SweepConfig{
			Workload: smallRandom(),
			Fracs:    []float64{1e-3, 0.1, 1.0},
			Reps:     1,
		})
		if len(tab.Rows) != 3 {
			t.Fatalf("%s: rows = %d, want 3", problem, len(tab.Rows))
		}
	}
}

func TestThreadScalingRuns(t *testing.T) {
	for problem, cols := range map[greedy.Problem]int{greedy.ProblemMIS: 6, greedy.ProblemMM: 4} {
		tab := ThreadScaling(problem, ThreadConfig{
			Workload: smallRandom(),
			Threads:  []int{1, 2},
			Reps:     1,
		})
		if len(tab.Rows) != 2 || len(tab.Headers) != cols {
			t.Fatalf("%s: rows = %d, columns = %d; want 2 rows, %d columns", problem, len(tab.Rows), len(tab.Headers), cols)
		}
	}
}

func TestLubyWorkRatioRuns(t *testing.T) {
	tab := LubyWorkRatio(smallRandom(), 1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTheoryTablesRun(t *testing.T) {
	dep := TheoryDependenceLength([]int{1000, 4000}, 10, 3)
	if len(dep.Rows) != 2 {
		t.Fatalf("dependence rows = %d", len(dep.Rows))
	}
	pp := TheoryPrefixPath(4000, 10, 3)
	if len(pp.Rows) == 0 {
		t.Fatal("prefix path table empty")
	}
	dr := TheoryDegreeReduction(4000, 10, 3)
	if len(dr.Rows) == 0 {
		t.Fatal("degree reduction table empty")
	}
	ps := TheoryPrefixSparsity(4000, 10, 3)
	if len(ps.Rows) == 0 {
		t.Fatal("sparsity table empty")
	}
}

func TestAblationsRun(t *testing.T) {
	ab1 := AblationPointer(smallRandom(), 1)
	if len(ab1.Rows) == 0 {
		t.Fatal("pointer ablation empty")
	}
	ab2 := AblationAlgorithms(smallRandom(), 1)
	if len(ab2.Rows) != 9 {
		t.Fatalf("algorithm ablation rows = %d", len(ab2.Rows))
	}
	sf := SpanningForestExperiment(smallRandom(), 1)
	if len(sf.Rows) < 2 {
		t.Fatal("spanning forest table too small")
	}
}

func TestEnvNonEmpty(t *testing.T) {
	if !strings.Contains(Env(), "gomaxprocs") {
		t.Errorf("Env() = %q", Env())
	}
}
