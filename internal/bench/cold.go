package bench

import (
	"fmt"

	greedy "repro"
)

// coldSeed is the first seed of a cold run. Repetition i solves under
// coldSeed+i, which no earlier call on the Solver used, so every
// repetition derives its order and builds its layout, as a service's
// unique job does.
const coldSeed = 1 << 20

// coldRun times reps default-plan solves of problem on the reused
// solver, each under a fresh seed, and reports their median time with
// the first seed's counters. Each answer is checked against the
// sequential answer under its own seed once the timing is done, so the
// check's order derivation is not charged to the cold solves. Invalid
// or mismatched answers panic, as in execute.
func coldRun(problem greedy.Problem, solver *greedy.Solver, in greedy.Input, reps int) RunReport {
	var cold []*executed
	ms := medianMS(reps, func() {
		cold = append(cold, execute(problem, solver, in, nil, greedy.WithSeed(coldSeed+uint64(len(cold)))))
	})
	for i, c := range cold {
		seed := greedy.WithSeed(coldSeed + uint64(i))
		seq := execute(problem, solver, in, nil, seed, greedy.WithAlgorithm(greedy.AlgoSequential))
		if verr := c.answer.Verify(in); verr != nil {
			panic(fmt.Sprintf("bench: cold %s invalid: %v", problem, verr))
		}
		if !c.answer.Matches(seq.answer) {
			panic(fmt.Sprintf("bench: cold %s differs from sequential", problem))
		}
	}
	run := cold[0].run
	run.Config, run.TimeMS = "cold", ms
	return run
}

// ColdPath reports what a fresh seed costs on w's graph. For each
// problem it times the sequential scan, the default-plan solve with its
// order and layout cached by an earlier call (warm), and coldRun's
// solves, which pay both (cold), and gives both prefix times over the
// sequential time. The sequential scan's order is cached too, so
// cold/seq charges the order and layout to the prefix solve alone.
func ColdPath(w Workload, reps int) Table {
	in := greedy.GraphInput(w.Build())
	t := Table{
		Title:   fmt.Sprintf("cold path: a fresh seed per solve on %s [%s]", w, Env()),
		Headers: []string{"problem", "seq", "warm", "cold", "warm/seq", "cold/seq"},
	}
	for _, problem := range greedy.Problems() {
		solver := greedy.NewSolver()
		sequential := greedy.WithAlgorithm(greedy.AlgoSequential)
		seq := execute(problem, solver, in, nil, sequential)
		seqMS := medianMS(reps, func() { execute(problem, solver, in, nil, sequential) })
		execute(problem, solver, in, seq)
		warmMS := medianMS(reps, func() { execute(problem, solver, in, nil) })
		cold := coldRun(problem, solver, in, reps)
		t.Rows = append(t.Rows, []string{
			string(problem),
			fmt.Sprintf("%.2fms", seqMS),
			fmt.Sprintf("%.2fms", warmMS),
			fmt.Sprintf("%.2fms", cold.TimeMS),
			fmt.Sprintf("%.2fx", warmMS/seqMS),
			fmt.Sprintf("%.2fx", cold.TimeMS/seqMS),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("medians of %d; cold repetition i runs under seed %d+i on the same Solver, so it derives its order and builds its layout", max(reps, 1), coldSeed),
		"the warm and cold answers are checked against the sequential answer under the same seed",
	)
	return t
}
