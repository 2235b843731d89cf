package bench

import (
	"context"
	"fmt"
	"slices"

	greedy "repro"
	"repro/internal/engine"
	"repro/internal/spanning"
)

// AblationPointer compares the PBBS-style rescan-from-scratch attempt
// (what the paper measures) with the parent-pointer optimization of
// Lemma 4.1, across prefix sizes. The pointer variant caps check work
// at O(m) at the cost of one scan cursor per vertex; the difference
// shows at large prefixes, where rescans multiply.
func AblationPointer(w Workload, reps int) Table {
	in := greedy.GraphInput(w.Build())
	solver := solverFor(w, greedy.ProblemMIS)
	seq := execute(greedy.ProblemMIS, solver, in, true, sequential)
	t := Table{
		Title:   fmt.Sprintf("Ablation AB1: rescan vs parent-pointer attempts on %s [%s]", w, Env()),
		Headers: []string{"prefix/N", "scratch-inspect", "pointer-inspect", "scratch-time", "pointer-time"},
		Notes: []string{
			"design choice of Section 4: Lemma 4.1's pointer bounds total check work by O(m)",
		},
	}
	for _, frac := range []float64{1e-4, 1e-3, 1e-2, 1e-1, 1.0} {
		scratch := timed(greedy.ProblemMIS, solver, in, seq, reps, greedy.WithPrefixFrac(frac)).run
		pointer := timed(greedy.ProblemMIS, solver, in, seq, reps, greedy.WithPrefixFrac(frac), greedy.WithPointer()).run
		t.Rows = append(t.Rows, []string{fmtFloat(frac), fmt.Sprintf("%d", scratch.Inspections),
			fmt.Sprintf("%d", pointer.Inspections), fmtMS(scratch.TimeMS), fmtMS(pointer.TimeMS)})
	}
	return t
}

// AblationAlgorithms compares every algorithm that MIS and MM accept on
// one workload: the sequential baseline, the root-set linear-work
// algorithm, the prefix-based algorithm at its default prefix, the fully
// parallel prefix (Algorithm 2), and, for MIS, Luby. Every answer but
// Luby's must match the sequential one.
func AblationAlgorithms(w Workload, reps int) Table {
	in := greedy.GraphInput(w.Build())
	t := Table{
		Title:   fmt.Sprintf("Ablation AB2: algorithm comparison on %s [%s]", w, Env()),
		Headers: []string{"algorithm", "rounds", "attempts", "inspections", "time", "size"},
	}
	for _, problem := range []greedy.Problem{greedy.ProblemMIS, greedy.ProblemMM} {
		solver := solverFor(w, problem)
		var seq *executed
		for _, algo := range []greedy.Algorithm{greedy.AlgoSequential, greedy.AlgoRootSet, greedy.AlgoPrefix, greedy.AlgoParallel, greedy.AlgoLuby} {
			if problem.Check(greedy.Plan{Algorithm: algo}) != nil {
				continue
			}
			ref, opts := seq, []greedy.Option{greedy.WithAlgorithm(algo)}
			if algo == greedy.AlgoLuby {
				ref, opts = nil, lubyPlan(w)
			}
			r := timed(problem, solver, in, ref, reps, opts...)
			if seq == nil {
				seq = r
			}
			t.Rows = append(t.Rows, counterRow(fmt.Sprintf("%s/%s", problem, algo), r.run))
		}
	}
	return t
}

// SpanningForestExperiment exercises the paper's future-work extension
// (§7): greedy spanning forest under the prefix technique. Two parallel
// protocols are measured, because the extension's answer is two-sided:
//
//   - exact (spanning.PrefixSF, both-root reservations) reproduces the
//     sequential forest but serializes attachments to hub components —
//     on the random graph its round count approaches the number of tree
//     edges, so it is run at 1/16 scale and small fracs only; it has no
//     Solver entry, so it is called directly;
//   - relaxed (the Solver's SF, PBBS one-root reservations) keeps the
//     parallelism at the cost of returning a different — still
//     deterministic, still valid — forest of the same size.
func SpanningForestExperiment(w Workload, reps int) Table {
	in := greedy.GraphInput(w.Build())
	solver := solverFor(w, greedy.ProblemSF)
	seq := timed(greedy.ProblemSF, solver, in, nil, reps, sequential)
	t := Table{
		Title:   fmt.Sprintf("Extension X1 (Section 7): spanning forest on %s [%s]", w, Env()),
		Headers: []string{"algorithm", "prefix/M", "rounds", "attempts", "time", "forestEdges", "seqEqual"},
		Notes: []string{
			"exact = lexicographically-first forest (both-root reservations); serializes on hubs, so measured on a 1/16-scale instance",
			"relaxed = PBBS one-root reservations; deterministic per (order, prefix) but a different valid forest",
		},
	}
	row := func(name, frac string, r RunReport, seqEqual string) {
		t.Rows = append(t.Rows, []string{name, frac, fmt.Sprintf("%d", r.Rounds), fmt.Sprintf("%d", r.Attempts),
			fmtMS(r.TimeMS), fmt.Sprintf("%d", r.Size), seqEqual})
	}
	row("sequential", "-", seq.run, "yes")
	for _, frac := range []float64{1e-3, 1e-2, 1e-1, 1.0} {
		r := timed(greedy.ProblemSF, solver, in, seq, reps, greedy.WithPrefixFrac(frac))
		eq := "no"
		if slices.Equal(r.answer.In, seq.answer.In) {
			eq = "yes"
		}
		row("relaxed", fmtFloat(frac), r.run, eq)
	}

	// The exact protocol at reduced scale, against the sequential forest
	// there.
	small := w
	small.N, small.M = w.N/16, w.M/16
	smallIn := greedy.GraphInput(small.Build())
	smallSeq := execute(greedy.ProblemSF, solver, smallIn, true, sequential)
	el := smallIn.EdgeList()
	ord := greedy.NewRandomOrder(el.NumEdges(), w.Seed+3)
	for _, frac := range []float64{1e-4, 1e-3} {
		var res *spanning.Result
		ms := medianMS(reps, func() {
			res = must(spanning.PrefixSF(context.Background(), el, ord, spanning.Options{Options: engine.Options{PrefixFrac: frac}}))
		})
		if !slices.Equal(res.InForest, smallSeq.answer.In) {
			panic("bench: exact prefix spanning forest diverged from sequential")
		}
		row("exact(1/16)", fmtFloat(frac), RunReport{Rounds: res.Stats.Rounds, Attempts: res.Stats.Attempts, TimeMS: ms, Size: res.Size()}, "yes")
	}
	return t
}
