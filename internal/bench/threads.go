package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"strings"

	greedy "repro"
)

// ThreadConfig configures a thread-scaling experiment (Figures 3 and 4).
type ThreadConfig struct {
	Workload   Workload
	Threads    []int   // GOMAXPROCS values; nil means {1, 2, 4}
	PrefixFrac float64 // prefix fraction for the prefix-based algorithm; 0 means the default
	Reps       int
}

// withProcs runs f under a temporary GOMAXPROCS and restores it.
func withProcs(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// lubyPlan selects Luby's algorithm under its own seed, w.Seed+9: it
// draws fresh priorities every round instead of following an order.
func lubyPlan(w Workload) []greedy.Option {
	return []greedy.Option{greedy.WithAlgorithm(greedy.AlgoLuby), greedy.WithSeed(w.Seed + 9)}
}

// ThreadScaling reproduces the paper's thread-scaling figures, Figure 3
// (MIS) and Figure 4 (MM): running time versus number of threads for
// problem's prefix algorithm, for Luby's algorithm where the problem
// has one, and for the sequential scan (a horizontal line in the
// paper's plot). Every answer is checked; Luby's only by Verify.
func ThreadScaling(problem greedy.Problem, cfg ThreadConfig) Table {
	in := greedy.GraphInput(cfg.Workload.Build())
	solver := solverFor(cfg.Workload, problem)
	luby := problem.Check(greedy.Plan{Algorithm: greedy.AlgoLuby}) == nil
	fig, name := paperFigures[problem], strings.ToUpper(string(problem))
	seq := timed(problem, solver, in, nil, cfg.Reps, sequential)
	t := Table{
		Title:   fmt.Sprintf("%s on %s [%s]", cmp.Or(fig.threads, name+" time vs threads"), cfg.Workload, Env()),
		Headers: []string{"threads", "prefix" + name, "serial" + name, "prefix-speedup"},
	}
	if luby {
		t.Headers = append(t.Headers, "luby", "prefix/luby")
	}
	threads := cfg.Threads
	if len(threads) == 0 {
		threads = []int{1, 2, 4}
	}
	var prefix1 float64
	for i, p := range threads {
		var prefix, lu *executed
		withProcs(p, func() {
			prefix = timed(problem, solver, in, seq, cfg.Reps, greedy.WithPrefixFrac(cfg.PrefixFrac))
			if luby {
				lu = timed(problem, solver, in, nil, cfg.Reps, lubyPlan(cfg.Workload)...)
			}
		})
		ms := prefix.run.TimeMS
		if i == 0 {
			prefix1 = ms
			t.Notes = append(t.Notes, fmt.Sprintf("prefix = %d of %d items; serial time is thread-independent", prefix.run.PrefixMax, seq.run.Attempts))
		}
		row := []string{fmt.Sprintf("%d", p), fmtMS(ms), fmtMS(seq.run.TimeMS), fmtFloat(prefix1 / ms)}
		if luby {
			row = append(row, fmtMS(lu.run.TimeMS), fmtFloat(lu.run.TimeMS/ms))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fig.threadsNote...)
	return t
}

// LubyWorkRatio quantifies the in-text claim that the prefix-based MIS
// is 4-8x faster than Luby because it does less work: it reports the
// rounds, attempts and edge inspections of the two algorithms, and
// their time and inspection ratios.
func LubyWorkRatio(w Workload, reps int) Table {
	in := greedy.GraphInput(w.Build())
	solver := solverFor(w, greedy.ProblemMIS)
	seq := execute(greedy.ProblemMIS, solver, in, true, sequential)
	pref := timed(greedy.ProblemMIS, solver, in, seq, reps)
	luby := timed(greedy.ProblemMIS, solver, in, nil, reps, lubyPlan(w)...)
	return Table{
		Title:   fmt.Sprintf("In-text claim: prefix MIS vs Luby on %s [%s]", w, Env()),
		Headers: []string{"algorithm", "rounds", "work(attempts)", "inspections", "time", "setSize"},
		Rows:    [][]string{counterRow("prefixMIS", pref.run), counterRow("luby", luby.run)},
		Notes: []string{
			fmt.Sprintf("time ratio luby/prefix = %s (paper: 4-8x)", fmtFloat(luby.run.TimeMS/pref.run.TimeMS)),
			fmt.Sprintf("inspection ratio luby/prefix = %s", fmtFloat(float64(luby.run.Inspections)/float64(pref.run.Inspections))),
		},
	}
}

// counterRow renders a run as name, rounds, attempts, inspections, time
// and size.
func counterRow(name string, r RunReport) []string {
	return []string{name, fmt.Sprintf("%d", r.Rounds), fmt.Sprintf("%d", r.Attempts),
		fmt.Sprintf("%d", r.Inspections), fmtMS(r.TimeMS), fmt.Sprintf("%d", r.Size)}
}
