package bench

import (
	"encoding/json"
	"testing"
)

// TestRunMatrixSmoke runs the CI-scale matrix once and checks the
// report's structural invariants: every scenario family present, every
// problem covered with sequential + fixed + adaptive runs and a cold
// one, all runs
// verified against the sequential baseline (RunMatrix panics
// otherwise), ratios populated, and the JSON round-trippable.
func TestRunMatrixSmoke(t *testing.T) {
	report := RunMatrix(MatrixConfig{Smoke: true, Reps: 1})
	if report.Schema != MatrixSchema {
		t.Fatalf("schema %q", report.Schema)
	}
	if len(report.Scenarios) != 4 {
		t.Fatalf("scenario count %d, want 4", len(report.Scenarios))
	}
	names := map[string]bool{}
	for _, sc := range report.Scenarios {
		names[sc.Name] = true
		if len(sc.Problems) != 5 {
			t.Fatalf("%s: problem count %d, want 5", sc.Name, len(sc.Problems))
		}
		problems := map[string]bool{}
		for _, p := range sc.Problems {
			problems[p.Problem] = true
		}
		for _, want := range []string{"mis", "mm", "sf", "coloring", "hittingset"} {
			if !problems[want] {
				t.Fatalf("%s: problem %q missing", sc.Name, want)
			}
		}
		for _, p := range sc.Problems {
			// seq + len(fracs) fixed + adaptive.
			if want := 1 + len(report.Fracs) + 1; len(p.Runs) != want {
				t.Fatalf("%s/%s: run count %d, want %d", sc.Name, p.Problem, len(p.Runs), want)
			}
			if p.Runs[0].Config != "seq" {
				t.Fatalf("%s/%s: first run %q, want seq", sc.Name, p.Problem, p.Runs[0].Config)
			}
			last := p.Runs[len(p.Runs)-1]
			if !last.Adaptive || last.Config != "adaptive" {
				t.Fatalf("%s/%s: last run %+v, want adaptive", sc.Name, p.Problem, last)
			}
			if len(last.Windows) == 0 {
				t.Errorf("%s/%s: adaptive run recorded no window trace", sc.Name, p.Problem)
			}
			if last.WindowsTruncated {
				t.Errorf("%s/%s: window trace truncated", sc.Name, p.Problem)
			}
			traced := int64(0)
			for _, wr := range last.Windows {
				traced += int64(wr.Rounds)
			}
			if traced != last.Rounds {
				t.Errorf("%s/%s: window trace covers %d rounds, run had %d", sc.Name, p.Problem, traced, last.Rounds)
			}
			if p.AdaptiveVsBestFixedWork <= 0 || p.AdaptiveVsBestFixedTime <= 0 {
				t.Errorf("%s/%s: ratios not populated: %+v", sc.Name, p.Problem, p)
			}
			if p.Cold.Config != "cold" || p.ColdVsSeqTime <= 0 {
				t.Errorf("%s/%s: cold run missing: %+v", sc.Name, p.Problem, p.Cold)
			}
			for _, r := range append(p.Runs[:len(p.Runs):len(p.Runs)], p.Cold) {
				if !r.Matches {
					t.Errorf("%s/%s/%s: run does not match sequential", sc.Name, p.Problem, r.Config)
				}
				if r.Rounds <= 0 || r.Attempts <= 0 {
					t.Errorf("%s/%s/%s: empty counters %+v", sc.Name, p.Problem, r.Config, r)
				}
			}
		}
	}
	for _, want := range []string{"random", "rmat", "grid", "linegraph"} {
		if !names[want] {
			t.Errorf("scenario %q missing", want)
		}
	}

	var back MatrixReport
	if err := json.Unmarshal(report.JSON(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Schema != report.Schema || len(back.Scenarios) != len(report.Scenarios) {
		t.Fatalf("JSON round trip lost data")
	}
}
