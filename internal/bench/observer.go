package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	greedy "repro"
	"repro/internal/trace"
)

// ObserverResult is one row of the observer-overhead experiment: the
// median MIS wall time of one observation mode on one workload, and
// its overhead relative to the bare (unobserved) run.
type ObserverResult struct {
	Workload    string  `json:"workload"`
	Mode        string  `json:"mode"`
	MedianMS    float64 `json:"median_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

// ObserverOverhead measures what round observation costs the solver:
// the same MIS computation bare, with the service's progress-counter
// observer, with per-phase wall-time profiling (WithPhaseProfile: four
// clock reads per round bracketing check/commit/slide),
// and with the counter observer plus trace recording of every round
// (TraceRoundSample=1 — the most expensive configuration; production
// samples sparsely or not at all). The final mode is the live-telemetry
// configuration greedyd runs under -trace-sample: counters, phase
// profiling, and trace recording together. The modes share one Solver,
// warmed before timing, so the comparison isolates the observer from
// buffer allocation.
func ObserverOverhead(w Workload, reps int) []ObserverResult {
	g := w.Build()
	solver := greedy.NewSolver()
	ctx := context.Background()
	run := func(opts ...greedy.Option) func() {
		return func() {
			if _, err := solver.MIS(ctx, g, opts...); err != nil {
				panic(fmt.Sprintf("bench: observer overhead MIS: %v", err))
			}
		}
	}
	run()() // warm the solver's buffers outside the timed region

	// The counters mode mirrors internal/service's job-progress
	// observer: a handful of atomic-free accumulations per round.
	var rounds, attempted, inspections int64
	counters := greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
		rounds = ri.Round
		attempted += int64(ri.Attempted)
		inspections += ri.EdgeInspections
	})
	rec := trace.NewRecorder(1<<14, 1)
	tracing := greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
		if rec.ShouldSampleRound(ri.Round) {
			rec.Append(trace.Event{
				Kind:        trace.KindRound,
				Round:       ri.Round,
				Prefix:      ri.PrefixSize,
				Attempted:   int64(ri.Attempted),
				Accepted:    int64(ri.Accepted),
				Inspections: ri.EdgeInspections,
			})
		}
	})

	modes := []struct {
		name string
		opts []greedy.Option
	}{
		{"bare", nil},
		{"counters", []greedy.Option{counters}},
		{"counters+phases", []greedy.Option{counters, greedy.WithPhaseProfile()}},
		{"counters+trace", []greedy.Option{counters, tracing}},
		{"full-telemetry", []greedy.Option{counters, tracing, greedy.WithPhaseProfile()}},
	}
	out := make([]ObserverResult, 0, len(modes))
	var base time.Duration
	for i, mode := range modes {
		med := MedianTime(reps, run(mode.opts...))
		if i == 0 {
			base = med
		}
		overhead := 0.0
		if base > 0 && i > 0 {
			overhead = 100 * (float64(med) - float64(base)) / float64(base)
		}
		out = append(out, ObserverResult{
			Workload:    w.String(),
			Mode:        mode.name,
			MedianMS:    float64(med) / float64(time.Millisecond),
			OverheadPct: overhead,
		})
	}
	_ = rounds
	return out
}

// ObserverTable renders observer-overhead rows as an aligned table.
func ObserverTable(rows []ObserverResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-16s %12s %10s\n", "workload", "mode", "median_ms", "overhead")
	for _, r := range rows {
		over := "-"
		if r.Mode != "bare" {
			over = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		fmt.Fprintf(&b, "%-28s %-16s %12.3f %10s\n", r.Workload, r.Mode, r.MedianMS, over)
	}
	return strings.TrimRight(b.String(), "\n")
}
