package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matching"
)

// ThreadConfig configures a thread-scaling experiment (Figures 3 and 4).
type ThreadConfig struct {
	Workload   Workload
	Threads    []int   // GOMAXPROCS values; nil means {1, 2, 4}
	PrefixFrac float64 // prefix fraction for the prefix-based algorithm; 0 means the default
	Reps       int
}

func (c ThreadConfig) threads() []int {
	if len(c.Threads) == 0 {
		return []int{1, 2, 4}
	}
	return c.Threads
}

// withProcs runs f under a temporary GOMAXPROCS and restores it.
func withProcs(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// MISThreadScaling reproduces Figure 3: running time versus number of
// threads for the prefix-based MIS, our implementation of Luby's
// algorithm, and the optimized sequential MIS (a horizontal line in the
// paper's plot).
func MISThreadScaling(cfg ThreadConfig) Table {
	g := cfg.Workload.Build()
	n := g.NumVertices()
	ord := core.NewRandomOrder(n, cfg.Workload.Seed+1)
	frac := cfg.PrefixFrac
	if frac <= 0 {
		frac = engine.DefaultPrefixFrac
	}

	seqTime := MedianTime(cfg.Reps, func() { must(core.SequentialMIS(context.Background(), g, ord, core.Options{})) })
	seq := must(core.SequentialMIS(context.Background(), g, ord, core.Options{}))

	t := Table{
		Title: fmt.Sprintf("Figure 3 (MIS time vs threads) on %s [%s]", cfg.Workload, Env()),
		Headers: []string{
			"threads", "prefixMIS", "luby", "serialMIS", "prefix-speedup", "prefix/luby",
		},
		Notes: []string{
			fmt.Sprintf("prefix frac = %v; serial time is thread-independent", frac),
			"paper (32 cores): prefix-based beats serial beyond 2 threads, beats Luby by 4-8x at every thread count, 14-17x self-speedup at 32 threads",
		},
	}

	var prefix1 time.Duration
	for _, p := range cfg.threads() {
		var prefixTime, lubyTime time.Duration
		withProcs(p, func() {
			var res *core.Result
			prefixTime = MedianTime(cfg.Reps, func() {
				res = must(core.PrefixMIS(context.Background(), g, ord, core.Options{Options: engine.Options{PrefixFrac: frac}}))
			})
			if !res.Equal(seq) {
				panic("bench: prefix MIS diverged under thread scaling")
			}
			lubyTime = MedianTime(cfg.Reps, func() {
				must(core.LubyMIS(context.Background(), g, cfg.Workload.Seed+9, core.Options{}))
			})
		})
		if prefix1 == 0 {
			prefix1 = prefixTime
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmtDuration(prefixTime),
			fmtDuration(lubyTime),
			fmtDuration(seqTime),
			fmtFloat(prefix1.Seconds() / prefixTime.Seconds()),
			fmtFloat(lubyTime.Seconds() / prefixTime.Seconds()),
		})
	}
	return t
}

// MMThreadScaling reproduces Figure 4: running time versus number of
// threads for the prefix-based MM against the sequential MM.
func MMThreadScaling(cfg ThreadConfig) Table {
	g := cfg.Workload.Build()
	el := g.EdgeList()
	m := el.NumEdges()
	ord := core.NewRandomOrder(m, cfg.Workload.Seed+2)
	frac := cfg.PrefixFrac
	if frac <= 0 {
		frac = engine.DefaultPrefixFrac
	}

	seqTime := MedianTime(cfg.Reps, func() { must(matching.SequentialMM(context.Background(), el, ord, matching.Options{})) })
	seq := must(matching.SequentialMM(context.Background(), el, ord, matching.Options{}))

	t := Table{
		Title: fmt.Sprintf("Figure 4 (MM time vs threads) on %s [%s]", cfg.Workload, Env()),
		Headers: []string{
			"threads", "prefixMM", "serialMM", "prefix-speedup",
		},
		Notes: []string{
			fmt.Sprintf("prefix frac = %v", frac),
			"paper (32 cores): prefix-based MM beats serial beyond 4 threads, 21-24x self-speedup at 32 threads",
		},
	}

	var prefix1 time.Duration
	for _, p := range cfg.threads() {
		var prefixTime time.Duration
		withProcs(p, func() {
			var res *matching.Result
			prefixTime = MedianTime(cfg.Reps, func() {
				res = must(matching.PrefixMM(context.Background(), el, ord, matching.Options{Options: engine.Options{PrefixFrac: frac}}))
			})
			if !res.Equal(seq) {
				panic("bench: prefix MM diverged under thread scaling")
			}
		})
		if prefix1 == 0 {
			prefix1 = prefixTime
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmtDuration(prefixTime),
			fmtDuration(seqTime),
			fmtFloat(prefix1.Seconds() / prefixTime.Seconds()),
		})
	}
	return t
}

// LubyWorkRatio quantifies the in-text claim that the prefix-based MIS
// is 4-8x faster than Luby because it does less work: it reports the
// attempts and edge-inspection ratios between the two algorithms on
// both workloads.
func LubyWorkRatio(w Workload, reps int) Table {
	g := w.Build()
	n := g.NumVertices()
	ord := core.NewRandomOrder(n, w.Seed+1)

	pref := must(core.PrefixMIS(context.Background(), g, ord, core.Options{}))
	prefTime := MedianTime(reps, func() { must(core.PrefixMIS(context.Background(), g, ord, core.Options{})) })
	luby := must(core.LubyMIS(context.Background(), g, w.Seed+9, core.Options{}))
	lubyTime := MedianTime(reps, func() { must(core.LubyMIS(context.Background(), g, w.Seed+9, core.Options{})) })

	return Table{
		Title: fmt.Sprintf("In-text claim: prefix MIS vs Luby on %s [%s]", w, Env()),
		Headers: []string{
			"algorithm", "rounds", "work(attempts)", "inspections", "time", "setSize",
		},
		Rows: [][]string{
			{"prefixMIS", fmt.Sprintf("%d", pref.Stats.Rounds), fmt.Sprintf("%d", pref.Stats.Attempts),
				fmt.Sprintf("%d", pref.Stats.EdgeInspections), fmtDuration(prefTime), fmt.Sprintf("%d", pref.Size())},
			{"luby", fmt.Sprintf("%d", luby.Stats.Rounds), fmt.Sprintf("%d", luby.Stats.Attempts),
				fmt.Sprintf("%d", luby.Stats.EdgeInspections), fmtDuration(lubyTime), fmt.Sprintf("%d", luby.Size())},
		},
		Notes: []string{
			fmt.Sprintf("time ratio luby/prefix = %s (paper: 4-8x)", fmtFloat(lubyTime.Seconds()/prefTime.Seconds())),
			fmt.Sprintf("inspection ratio luby/prefix = %s", fmtFloat(float64(luby.Stats.EdgeInspections)/float64(pref.Stats.EdgeInspections))),
		},
	}
}
