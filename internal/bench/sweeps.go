package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	greedy "repro"
)

// SweepConfig configures a prefix-size sweep (Figures 1 and 2).
type SweepConfig struct {
	Workload Workload
	Fracs    []float64 // prefix fractions; nil means DefaultFracs
	Reps     int       // timing repetitions (median reported); min 1
}

// paperFigures labels the problems the paper plots: the titles of
// their prefix sweep and thread scaling, the item count their axes
// normalize by, and what the paper reports. Other problems run the same
// experiments unlabelled.
var paperFigures = map[greedy.Problem]struct {
	sweep, threads, items  string
	sweepNote, threadsNote []string
}{
	greedy.ProblemMIS: {"Figure 1 (MIS prefix sweep)", "Figure 3 (MIS time vs threads)", "N",
		[]string{"paper: work/N rises from 1 toward ~2.5-3 with prefix size; rounds/N falls as ~1/prefix then flattens at the dependence length; time is U-shaped with the optimum between"},
		[]string{"paper (32 cores): prefix-based beats serial beyond 2 threads, beats Luby by 4-8x at every thread count, 14-17x self-speedup at 32 threads"}},
	greedy.ProblemMM: {"Figure 2 (MM prefix sweep)", "Figure 4 (MM time vs threads)", "M",
		[]string{"paper: same shapes as Figure 1 with M replacing N on both axes"},
		[]string{"paper (32 cores): prefix-based MM beats serial beyond 4 threads, 21-24x self-speedup at 32 threads"}},
}

// solverFor returns a Solver seeded for problem's runs on w: w.Seed+1
// for MIS, +2 for MM, +3 for SF and so on down the problem table.
func solverFor(w Workload, problem greedy.Problem) *greedy.Solver {
	return greedy.NewSolver(greedy.WithSeed(w.Seed + 1 + uint64(slices.Index(greedy.Problems(), problem))))
}

// PrefixSweep reproduces the paper's prefix sweeps, Figure 1 (MIS,
// panels a-c for the random graph, d-f for rMat) and Figure 2 (MM):
// total work, number of rounds and running time of problem's prefix
// algorithm as a function of the prefix size, normalized by the item
// count (the sequential run's attempts: N vertices or M edges) as in
// the paper. Every answer is checked against the sequential one. The
// time columns depend on the host and exclude the layout the Solver
// caches; the others are machine-independent.
func PrefixSweep(problem greedy.Problem, cfg SweepConfig) Table {
	in := greedy.GraphInput(cfg.Workload.Build())
	solver := solverFor(cfg.Workload, problem)
	seq := timed(problem, solver, in, nil, cfg.Reps, sequential)
	items, m := float64(seq.run.Attempts), float64(in.Graph().NumEdges())
	fig, name := paperFigures[problem], strings.ToUpper(string(problem))
	unit := cmp.Or(fig.items, "n")
	t := Table{
		Title:   fmt.Sprintf("%s on %s [%s]", cmp.Or(fig.sweep, name+" prefix sweep"), cfg.Workload, Env()),
		Headers: []string{"prefix/" + unit, "prefix", "work/" + unit, "rounds/" + unit, "inspect/m", "time", "time/seq", string(problem) + "Size"},
		Notes: append([]string{fmt.Sprintf("sequential greedy %s: time=%s, size=%d; work/%s and rounds/%s are 1.0 by definition",
			name, fmtMS(seq.run.TimeMS), seq.run.Size, unit, unit)}, fig.sweepNote...),
	}
	fracs := cfg.Fracs
	if len(fracs) == 0 {
		fracs = DefaultFracs
	}
	for _, frac := range fracs {
		r := timed(problem, solver, in, seq, cfg.Reps, greedy.WithPrefixFrac(frac)).run
		t.Rows = append(t.Rows, []string{
			fmtFloat(frac),
			fmt.Sprintf("%d", r.PrefixMax),
			fmtFloat(float64(r.Attempts) / items),
			fmtFloat(float64(r.Rounds) / items),
			fmtFloat(float64(r.Inspections) / m),
			fmtMS(r.TimeMS),
			fmtFloat(r.TimeMS / seq.run.TimeMS),
			fmt.Sprintf("%d", r.Size),
		})
	}
	return t
}
