package bench

import (
	"fmt"

	greedy "repro"
)

// coldSeed is the first seed of a cold run, and seqColdSeed the first of
// a sequential cold run. Repetition i solves under base+i, which no
// earlier call on the Solver used, so every repetition derives its
// order and builds its layout, as a service's unique job does.
const (
	coldSeed    = 1 << 20
	seqColdSeed = 2 << 20
)

// coldRun times reps solves of problem with algo on the reused solver,
// each under a fresh seed from base on, and reports their median time
// with the first seed's counters. Each answer is checked against the
// other algorithm's answer (the sequential one for a prefix run, the
// prefix one for a sequential run) under its own seed once the timing
// is done, so the check's order derivation is not charged to the cold
// solves. Invalid or mismatched answers panic, as in timed.
func coldRun(problem greedy.Problem, solver *greedy.Solver, in greedy.Input, reps int, algo greedy.Algorithm, base uint64) RunReport {
	var cold []*executed
	ms := medianMS(reps, func() {
		cold = append(cold, execute(problem, solver, in, false, greedy.WithAlgorithm(algo), greedy.WithSeed(base+uint64(len(cold)))))
	})
	check, config := greedy.AlgoSequential, "cold"
	if algo == greedy.AlgoSequential {
		check, config = greedy.AlgoPrefix, "seq cold"
	}
	for i, c := range cold {
		ref := execute(problem, solver, in, false, greedy.WithAlgorithm(check), greedy.WithSeed(base+uint64(i)))
		if verr := c.answer.Verify(in); verr != nil {
			panic(fmt.Sprintf("bench: %s %s invalid: %v", config, problem, verr))
		}
		if !c.answer.Matches(ref.answer) {
			panic(fmt.Sprintf("bench: %s %s differs from %s", config, problem, check))
		}
	}
	run := cold[0].run
	run.Config, run.TimeMS = config, ms
	return run
}

// ColdPath reports what a fresh seed costs on w's graph. For each
// problem it times the sequential scan and the default-plan solve, each
// with its order and layout cached by an earlier call (seq, warm), and
// coldRun's sequential and default-plan solves, which pay the order,
// the layout and the run (seq cold, cold). It gives the prefix times
// over the warm sequential time, and the cold prefix time over the cold
// sequential time, the like-for-like cost of a fresh seed.
func ColdPath(w Workload, reps int) Table {
	in := greedy.GraphInput(w.Build())
	t := Table{
		Title:   fmt.Sprintf("cold path: a fresh seed per solve on %s [%s]", w, Env()),
		Headers: []string{"problem", "seq", "seq cold", "warm", "cold", "warm/seq", "cold/seq", "cold/seq cold"},
	}
	for _, problem := range greedy.Problems() {
		solver := greedy.NewSolver()
		seq := timed(problem, solver, in, nil, reps, sequential)
		seqMS := seq.run.TimeMS
		warmMS := timed(problem, solver, in, seq, reps).run.TimeMS
		cold := coldRun(problem, solver, in, reps, greedy.AlgoPrefix, coldSeed)
		seqCold := coldRun(problem, solver, in, reps, greedy.AlgoSequential, seqColdSeed)
		t.Rows = append(t.Rows, []string{
			string(problem),
			fmtMS(seqMS),
			fmtMS(seqCold.TimeMS),
			fmtMS(warmMS),
			fmtMS(cold.TimeMS),
			fmt.Sprintf("%.2fx", warmMS/seqMS),
			fmt.Sprintf("%.2fx", cold.TimeMS/seqMS),
			fmt.Sprintf("%.2fx", cold.TimeMS/seqCold.TimeMS),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("medians of %d; cold repetition i runs under seed %d+i, and seq cold under seed %d+i, on the same Solver, so each derives its order and builds its layout", max(reps, 1), coldSeed, seqColdSeed),
		"every answer is checked against the sequential answer under the same seed; seq cold's against the default plan's",
	)
	return t
}
