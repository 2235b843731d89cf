package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matching"
)

// SweepConfig configures a prefix-size sweep (Figures 1 and 2).
type SweepConfig struct {
	Workload  Workload
	Fracs     []float64 // prefix fractions; nil means DefaultFracs
	Reps      int       // timing repetitions (median reported); min 1
	Pointered bool      // use the Lemma 4.1 pointer optimization (ablation AB1)
}

func (c SweepConfig) fracs() []float64 {
	if len(c.Fracs) == 0 {
		return DefaultFracs
	}
	return c.Fracs
}

// MISPrefixSweep reproduces Figure 1 (panels a-c for the random graph,
// d-f for rMat): total work, number of rounds and running time of
// PrefixMIS as a function of the prefix size, all normalized by N as in
// the paper. The work and rounds columns are machine-independent; the
// time column depends on the host.
func MISPrefixSweep(cfg SweepConfig) Table {
	g := cfg.Workload.Build()
	n := g.NumVertices()
	ord := core.NewRandomOrder(n, cfg.Workload.Seed+1)

	seq := must(core.SequentialMIS(context.Background(), g, ord, core.Options{}))
	seqTime := MedianTime(cfg.Reps, func() { must(core.SequentialMIS(context.Background(), g, ord, core.Options{})) })

	t := Table{
		Title: fmt.Sprintf("Figure 1 (MIS prefix sweep) on %s [%s]", cfg.Workload, Env()),
		Headers: []string{
			"prefix/N", "prefix", "work/N", "rounds/N", "inspect/m", "time", "time/seq", "misSize",
		},
		Notes: []string{
			fmt.Sprintf("sequential greedy MIS: time=%s, |MIS|=%d; work/N and rounds/N are 1.0 by definition", fmtDuration(seqTime), seq.Size()),
			"paper: work/N rises from 1 toward ~2.5-3 with prefix size; rounds/N falls as ~1/prefix then flattens at the dependence length; time is U-shaped with the optimum between",
		},
	}
	m := g.NumEdges()
	for _, frac := range cfg.fracs() {
		opt := core.Options{Options: engine.Options{PrefixFrac: frac}, Pointered: cfg.Pointered}
		var res *core.Result
		dur := MedianTime(cfg.Reps, func() { res = must(core.PrefixMIS(context.Background(), g, ord, opt)) })
		if !res.Equal(seq) {
			panic(fmt.Sprintf("bench: prefix MIS at frac %v differs from sequential", frac))
		}
		t.Rows = append(t.Rows, []string{
			fmtFloat(frac),
			fmt.Sprintf("%d", res.Stats.PrefixSize),
			fmtFloat(float64(res.Stats.Attempts) / float64(n)),
			fmtFloat(float64(res.Stats.Rounds) / float64(n)),
			fmtFloat(float64(res.Stats.EdgeInspections) / float64(m)),
			fmtDuration(dur),
			fmtFloat(dur.Seconds() / seqTime.Seconds()),
			fmt.Sprintf("%d", res.Size()),
		})
	}
	return t
}

// MMPrefixSweep reproduces Figure 2: the same sweep for maximal
// matching, with quantities normalized by the number of edges M.
func MMPrefixSweep(cfg SweepConfig) Table {
	g := cfg.Workload.Build()
	el := g.EdgeList()
	m := el.NumEdges()
	ord := core.NewRandomOrder(m, cfg.Workload.Seed+2)

	seq := must(matching.SequentialMM(context.Background(), el, ord, matching.Options{}))
	seqTime := MedianTime(cfg.Reps, func() { must(matching.SequentialMM(context.Background(), el, ord, matching.Options{})) })

	t := Table{
		Title: fmt.Sprintf("Figure 2 (MM prefix sweep) on %s [%s]", cfg.Workload, Env()),
		Headers: []string{
			"prefix/M", "prefix", "work/M", "rounds/M", "inspect/m", "time", "time/seq", "mmSize",
		},
		Notes: []string{
			fmt.Sprintf("sequential greedy MM: time=%s, |MM|=%d", fmtDuration(seqTime), seq.Size()),
			"paper: same shapes as Figure 1 with M replacing N on both axes",
		},
	}
	for _, frac := range cfg.fracs() {
		opt := matching.Options{Options: engine.Options{PrefixFrac: frac}}
		var res *matching.Result
		dur := MedianTime(cfg.Reps, func() { res = must(matching.PrefixMM(context.Background(), el, ord, opt)) })
		if !res.Equal(seq) {
			panic(fmt.Sprintf("bench: prefix MM at frac %v differs from sequential", frac))
		}
		t.Rows = append(t.Rows, []string{
			fmtFloat(frac),
			fmt.Sprintf("%d", res.Stats.PrefixSize),
			fmtFloat(float64(res.Stats.Attempts) / float64(m)),
			fmtFloat(float64(res.Stats.Rounds) / float64(m)),
			fmtFloat(float64(res.Stats.EdgeInspections) / float64(m)),
			fmtDuration(dur),
			fmtFloat(dur.Seconds() / seqTime.Seconds()),
			fmt.Sprintf("%d", res.Size()),
		})
	}
	return t
}
