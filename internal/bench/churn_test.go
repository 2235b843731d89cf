package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseChurnAssertion covers the strict spec grammar: good specs
// round-trip, and malformed numeric fields — including trailing
// garbage, which fmt.Sscanf would have silently accepted — are
// rejected so a mistyped CI guard fails at parse time.
func TestParseChurnAssertion(t *testing.T) {
	a, err := ParseChurnAssertion("rmat:mm:1:1.0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Scenario != "rmat" || a.Problem != "mm" || a.BatchSize != 1 || a.MinSpeedup != 1.0 {
		t.Fatalf("parsed %+v", a)
	}
	for _, bad := range []string{
		"", "rmat:mm:1", "rmat:mm:1:1.0:extra",
		"rmat:mm:16x:1.0", "rmat:mm:1:1.0x", "rmat:mm::1.0", "rmat:mm:1:",
	} {
		if _, err := ParseChurnAssertion(bad); err == nil {
			t.Errorf("ParseChurnAssertion(%q) accepted a malformed spec", bad)
		}
	}
}

// TestCheckAssertions covers the evaluation paths: a held assertion,
// a violated one, and one naming a cell absent from the report.
func TestCheckAssertions(t *testing.T) {
	r := ChurnReport{
		BatchSizes: []int{1},
		Scenarios: []ChurnScenarioReport{{
			ChurnScenario: ChurnScenario{Name: "rmat"},
			Problems: []ChurnProblemReport{{
				Problem: "mm",
				Runs:    []ChurnRun{{BatchSize: 1, SpeedupVsRecompute: 45.0}},
			}},
		}},
	}
	if fails := r.CheckAssertions([]ChurnAssertion{{Scenario: "rmat", Problem: "mm", BatchSize: 1, MinSpeedup: 5}}); len(fails) != 0 {
		t.Errorf("held assertion reported failures: %v", fails)
	}
	fails := r.CheckAssertions([]ChurnAssertion{
		{Scenario: "rmat", Problem: "mm", BatchSize: 1, MinSpeedup: 100},
		{Scenario: "grid", Problem: "mis", BatchSize: 1, MinSpeedup: 1},
	})
	if len(fails) != 2 {
		t.Fatalf("want 2 failures, got %v", fails)
	}
	if !strings.Contains(fails[0], "45.00x < required 100.00x") {
		t.Errorf("violation message: %s", fails[0])
	}
	if !strings.Contains(fails[1], "no such cell") {
		t.Errorf("missing-cell message: %s", fails[1])
	}
}

// churnCells renders the machine-independent cells of a churn report,
// one (scenario, problem, batch size) cell per line: the seeds,
// visited, flipped, changed and attempts means, the frontier-peak
// maximum and Verified.
func churnCells(r ChurnReport) string {
	var b strings.Builder
	for _, sc := range r.Scenarios {
		for _, p := range sc.Problems {
			for _, run := range p.Runs {
				fmt.Fprintf(&b, "%s %s %d: seeds=%g visited=%g flipped=%g changed=%g attempts=%g peak=%d verified=%v\n",
					sc.Name, p.Problem, run.BatchSize, run.SeedsMean, run.VisitedMean, run.FlippedMean,
					run.ChangedMean, run.AttemptsMean, run.FrontierPeakMax, run.Verified)
			}
		}
	}
	return b.String()
}

// TestChurnCellsPinned pins every machine-independent cell of a small
// churn matrix: the repair counters are a pure function of the graph,
// the priorities and the drawn batches, so a change to the sessions or
// the repair that keeps the answers but moves the work fails here.
// Smoke mode verifies every batch against a from-scratch solve.
func TestChurnCellsPinned(t *testing.T) {
	r := RunChurn(ChurnConfig{Smoke: true, Reps: 1, Batches: 2, BatchSizes: []int{1, 16}})
	if have := churnCells(r); have != pinnedChurnCells {
		t.Errorf("churn cells:\ngot:\n%swant:\n%s", have, pinnedChurnCells)
	}
}

// pinnedChurnCells holds the cells TestChurnCellsPinned expects.
const pinnedChurnCells = `random mis 1: seeds=0.5 visited=2 flipped=1 changed=1 attempts=2 peak=3 verified=true
random mis 16: seeds=4.5 visited=11.5 flipped=2 changed=2 attempts=11.5 peak=12 verified=true
random mm 1: seeds=0.5 visited=0.5 flipped=0 changed=0 attempts=0.5 peak=1 verified=true
random mm 16: seeds=6.5 visited=6.5 flipped=0 changed=0 attempts=6.5 peak=9 verified=true
rmat mis 1: seeds=0.5 visited=0.5 flipped=0.5 changed=0.5 attempts=0.5 peak=1 verified=true
rmat mis 16: seeds=7.5 visited=11 flipped=4.5 changed=4.5 attempts=11 peak=10 verified=true
rmat mm 1: seeds=0.5 visited=0.5 flipped=0.5 changed=0.5 attempts=0.5 peak=1 verified=true
rmat mm 16: seeds=33 visited=45.5 flipped=9.5 changed=9.5 attempts=45.5 peak=35 verified=true
grid mis 1: seeds=1 visited=1 flipped=0 changed=0 attempts=1 peak=1 verified=true
grid mis 16: seeds=11 visited=19.5 flipped=4.5 changed=4.5 attempts=19.5 peak=16 verified=true
grid mm 1: seeds=0.5 visited=0.5 flipped=0 changed=0 attempts=0.5 peak=1 verified=true
grid mm 16: seeds=15.5 visited=37 flipped=7.5 changed=7.5 attempts=37 peak=31 verified=true
`
