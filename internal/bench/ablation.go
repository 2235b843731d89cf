package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matching"
	"repro/internal/spanning"
)

// AblationPointer compares the PBBS-style rescan-from-scratch attempt
// (what the paper measures) with the parent-pointer optimization of
// Lemma 4.1, across prefix sizes. The pointer variant caps attempt work
// at O(m) but pays to build the parent lists; the crossover is visible
// at large prefixes where rescans multiply.
func AblationPointer(w Workload, reps int) Table {
	g := w.Build()
	n := g.NumVertices()
	ord := core.NewRandomOrder(n, w.Seed+1)
	t := Table{
		Title:   fmt.Sprintf("Ablation AB1: rescan vs parent-pointer attempts on %s [%s]", w, Env()),
		Headers: []string{"prefix/N", "scratch-inspect", "pointer-inspect", "scratch-time", "pointer-time"},
		Notes: []string{
			"design choice of Section 4: Lemma 4.1's pointer bounds total check work by O(m)",
		},
	}
	for _, frac := range []float64{1e-4, 1e-3, 1e-2, 1e-1, 1.0} {
		var scratch, pointer *core.Result
		st := MedianTime(reps, func() {
			scratch = must(core.PrefixMIS(context.Background(), g, ord, core.Options{Options: engine.Options{PrefixFrac: frac}}))
		})
		pt := MedianTime(reps, func() {
			pointer = must(core.PrefixMIS(context.Background(), g, ord, core.Options{Options: engine.Options{PrefixFrac: frac}, Pointered: true}))
		})
		if !scratch.Equal(pointer) {
			panic("bench: pointer ablation changed the MIS")
		}
		t.Rows = append(t.Rows, []string{
			fmtFloat(frac),
			fmt.Sprintf("%d", scratch.Stats.EdgeInspections),
			fmt.Sprintf("%d", pointer.Stats.EdgeInspections),
			fmtDuration(st),
			fmtDuration(pt),
		})
	}
	return t
}

// AblationAlgorithms compares all MIS implementations (and the MM
// implementations) on one workload: the sequential baseline, the
// root-set linear-work algorithm, the prefix-based algorithm at its
// default prefix, the fully parallel prefix (Algorithm 2), and Luby.
func AblationAlgorithms(w Workload, reps int) Table {
	g := w.Build()
	n := g.NumVertices()
	ord := core.NewRandomOrder(n, w.Seed+1)
	el := g.EdgeList()
	mmOrd := core.NewRandomOrder(el.NumEdges(), w.Seed+2)

	t := Table{
		Title:   fmt.Sprintf("Ablation AB2: algorithm comparison on %s [%s]", w, Env()),
		Headers: []string{"algorithm", "rounds", "attempts", "inspections", "time", "size"},
	}
	addRow := func(name string, rounds, attempts, inspections int64, dur string, size int) {
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", rounds), fmt.Sprintf("%d", attempts),
			fmt.Sprintf("%d", inspections), dur, fmt.Sprintf("%d", size),
		})
	}

	seq := must(core.SequentialMIS(context.Background(), g, ord, core.Options{}))
	seqT := MedianTime(reps, func() { must(core.SequentialMIS(context.Background(), g, ord, core.Options{})) })
	addRow("mis/sequential", seq.Stats.Rounds, seq.Stats.Attempts, seq.Stats.EdgeInspections, fmtDuration(seqT), seq.Size())

	root := must(core.RootSetMIS(context.Background(), g, ord, core.Options{}))
	rootT := MedianTime(reps, func() { must(core.RootSetMIS(context.Background(), g, ord, core.Options{})) })
	addRow("mis/rootset", root.Stats.Rounds, root.Stats.Attempts, root.Stats.EdgeInspections, fmtDuration(rootT), root.Size())

	pref := must(core.PrefixMIS(context.Background(), g, ord, core.Options{}))
	prefT := MedianTime(reps, func() { must(core.PrefixMIS(context.Background(), g, ord, core.Options{})) })
	addRow("mis/prefix", pref.Stats.Rounds, pref.Stats.Attempts, pref.Stats.EdgeInspections, fmtDuration(prefT), pref.Size())

	full := must(core.ParallelMIS(context.Background(), g, ord, core.Options{}))
	fullT := MedianTime(reps, func() { must(core.ParallelMIS(context.Background(), g, ord, core.Options{})) })
	addRow("mis/parallel-full", full.Stats.Rounds, full.Stats.Attempts, full.Stats.EdgeInspections, fmtDuration(fullT), full.Size())

	luby := must(core.LubyMIS(context.Background(), g, w.Seed+9, core.Options{}))
	lubyT := MedianTime(reps, func() { must(core.LubyMIS(context.Background(), g, w.Seed+9, core.Options{})) })
	addRow("mis/luby", luby.Stats.Rounds, luby.Stats.Attempts, luby.Stats.EdgeInspections, fmtDuration(lubyT), luby.Size())

	mseq := must(matching.SequentialMM(context.Background(), el, mmOrd, matching.Options{}))
	mseqT := MedianTime(reps, func() { must(matching.SequentialMM(context.Background(), el, mmOrd, matching.Options{})) })
	addRow("mm/sequential", mseq.Stats.Rounds, mseq.Stats.Attempts, mseq.Stats.EdgeInspections, fmtDuration(mseqT), mseq.Size())

	mroot := must(matching.RootSetMM(context.Background(), el, mmOrd, matching.Options{}))
	mrootT := MedianTime(reps, func() { must(matching.RootSetMM(context.Background(), el, mmOrd, matching.Options{})) })
	addRow("mm/rootset", mroot.Stats.Rounds, mroot.Stats.Attempts, mroot.Stats.EdgeInspections, fmtDuration(mrootT), mroot.Size())

	mpref := must(matching.PrefixMM(context.Background(), el, mmOrd, matching.Options{}))
	mprefT := MedianTime(reps, func() { must(matching.PrefixMM(context.Background(), el, mmOrd, matching.Options{})) })
	addRow("mm/prefix", mpref.Stats.Rounds, mpref.Stats.Attempts, mpref.Stats.EdgeInspections, fmtDuration(mprefT), mpref.Size())

	if !root.Equal(seq) || !pref.Equal(seq) || !full.Equal(seq) {
		panic("bench: MIS implementations disagree")
	}
	if !mroot.Equal(mseq) || !mpref.Equal(mseq) {
		panic("bench: MM implementations disagree")
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
//     edges, so it is run at 1/16 scale and small fracs only;
//   - relaxed (spanning.PrefixSFRelaxed, PBBS one-root reservations)
//     keeps the parallelism at the cost of returning a different —
//     still deterministic, still valid — forest.
func SpanningForestExperiment(w Workload, reps int) Table {
	g := w.Build()
	el := g.EdgeList()
	ord := core.NewRandomOrder(el.NumEdges(), w.Seed+3)

	seq := must(spanning.SequentialSF(context.Background(), el, ord, spanning.Options{}))
	seqT := MedianTime(reps, func() { must(spanning.SequentialSF(context.Background(), el, ord, spanning.Options{})) })

	t := Table{
		Title:   fmt.Sprintf("Extension X1 (Section 7): spanning forest on %s [%s]", w, Env()),
		Headers: []string{"algorithm", "prefix/M", "rounds", "attempts", "time", "forestEdges", "seqEqual"},
		Notes: []string{
			"exact = lexicographically-first forest (both-root reservations); serializes on hubs, so measured on a 1/16-scale instance",
			"relaxed = PBBS one-root reservations; deterministic per (order, prefix) but a different valid forest",
		},
	}
	t.Rows = append(t.Rows, []string{
		"sequential", "-", fmt.Sprintf("%d", seq.Stats.Rounds),
		fmt.Sprintf("%d", seq.Stats.Attempts), fmtDuration(seqT), fmt.Sprintf("%d", seq.Size()), "yes",
	})
	for _, frac := range []float64{1e-3, 1e-2, 1e-1, 1.0} {
		var res *spanning.Result
		dur := MedianTime(reps, func() {
			res = must(spanning.PrefixSFRelaxed(context.Background(), el, ord, spanning.Options{Options: engine.Options{PrefixFrac: frac}}))
		})
		eq := "no"
		if res.Equal(seq) {
			eq = "yes"
		}
		if res.Size() != seq.Size() {
			panic("bench: relaxed spanning forest has wrong size")
		}
		t.Rows = append(t.Rows, []string{
			"relaxed", fmtFloat(frac), fmt.Sprintf("%d", res.Stats.Rounds),
			fmt.Sprintf("%d", res.Stats.Attempts), fmtDuration(dur), fmt.Sprintf("%d", res.Size()), eq,
		})
	}

	// Exact protocol at reduced scale.
	smallW := w
	smallW.N = w.N / 16
	smallW.M = w.M / 16
	sg := smallW.Build()
	sel := sg.EdgeList()
	sord := core.NewRandomOrder(sel.NumEdges(), w.Seed+3)
	sseq := must(spanning.SequentialSF(context.Background(), sel, sord, spanning.Options{}))
	for _, frac := range []float64{1e-4, 1e-3} {
		var res *spanning.Result
		dur := MedianTime(reps, func() {
			res = must(spanning.PrefixSF(context.Background(), sel, sord, spanning.Options{Options: engine.Options{PrefixFrac: frac}}))
		})
		if !res.Equal(sseq) {
			panic("bench: exact prefix spanning forest diverged from sequential")
		}
		t.Rows = append(t.Rows, []string{
			"exact(1/16)", fmtFloat(frac), fmt.Sprintf("%d", res.Stats.Rounds),
			fmt.Sprintf("%d", res.Stats.Attempts), fmtDuration(dur), fmt.Sprintf("%d", res.Size()), "yes",
		})
	}
	return t
}
