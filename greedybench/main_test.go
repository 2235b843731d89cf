package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// exactMetrics are the counters of the traced run that depend only on
// the inputs: they must repeat exactly across runs at one seed.
func exactMetrics() []string {
	names := []string{
		"dynamic.mis.visited", "dynamic.mis.flipped",
		"dynamic.mm.visited", "dynamic.mm.flipped",
		"service.dedup_frac", "persist.wal_appends_per_exec",
	}
	for _, p := range problems {
		names = append(names, "engine."+p+".rounds", "engine."+p+".attempts", "engine."+p+".inspections")
	}
	return names
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runSmall(t *testing.T, workload, logN, trace string) runResult {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace,
		"--log-n", logN, "--dir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d\nstderr:\n%s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// declared reads the metric names and units BENCHMARK.json declares for
// an untraced or a traced run.
func declared(t *testing.T, traced bool) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	list := doc.EndToEnd
	if traced {
		list = doc.PerLayer
	}
	units := make(map[string]string)
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	return units
}

// checkDeclared requires the run to report exactly the declared metrics,
// each in its declared unit.
func checkDeclared(t *testing.T, r runResult, units map[string]string) {
	t.Helper()
	for name, unit := range units {
		if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("%s: reported %v (unit %q), declared unit %q", name, ok, m.Unit, unit)
		}
	}
	for name := range r.Metrics {
		if _, ok := units[name]; !ok {
			t.Errorf("%s reported but not declared", name)
		}
	}
}

var smallRuns = []struct{ workload, logN string }{
	{"solve-random", "12"}, {"solve-rmat", "12"}, {"serve-mixed", "10"},
}

// TestEndToEndMetrics checks that an untraced run of every workload
// reports every declared end-to-end metric.
func TestEndToEndMetrics(t *testing.T) {
	units := declared(t, false)
	for _, tc := range smallRuns {
		t.Run(tc.workload, func(t *testing.T) {
			checkDeclared(t, runSmall(t, tc.workload, tc.logN, "0"), units)
		})
	}
}

// TestExactCountersRepeat runs every workload's traced run twice at one
// seed and a small size. Each run checks its own answers (a wrong
// checksum fails the run) and must report every declared per-layer
// metric; across the two, the exact counters must be identical.
func TestExactCountersRepeat(t *testing.T) {
	units := declared(t, true)
	for _, tc := range smallRuns {
		t.Run(tc.workload, func(t *testing.T) {
			a, b := runSmall(t, tc.workload, tc.logN, "1"), runSmall(t, tc.workload, tc.logN, "1")
			checkDeclared(t, a, units)
			for _, name := range exactMetrics() {
				ma, okA := a.Metrics[name]
				mb, okB := b.Metrics[name]
				if !okA || !okB {
					t.Errorf("%s missing (first run %v, second %v)", name, okA, okB)
					continue
				}
				if ma.Value != mb.Value {
					t.Errorf("%s: %v then %v", name, ma.Value, mb.Value)
				}
			}
		})
	}
}
