package bench

import (
	"strings"
	"testing"

	greedy "repro"
)

// cells renders the listed columns of t, one row per line: the
// machine-independent part of a figure table.
func cells(t Table, cols ...int) string {
	var b strings.Builder
	for _, row := range t.Rows {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(row[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFigureCellsPinned pins every machine-independent cell of the
// figure experiments on both small workloads: the prefix, work, rounds,
// inspection and size cells of fig1 and fig2 at every DefaultFracs
// entry, and the counters of the Luby ratio, AB1, AB2 and X1. Only the
// time columns are left out; the counters are a pure function of the
// input, the order and the plan.
func TestFigureCellsPinned(t *testing.T) {
	for _, w := range []Workload{smallRandom(), smallRMat()} {
		got := map[string]string{
			"fig1": cells(PrefixSweep(greedy.ProblemMIS, SweepConfig{Workload: w, Reps: 1}), 0, 1, 2, 3, 4, 7),
			"fig2": cells(PrefixSweep(greedy.ProblemMM, SweepConfig{Workload: w, Reps: 1}), 0, 1, 2, 3, 4, 7),
			"luby": cells(LubyWorkRatio(w, 1), 0, 1, 2, 3, 5),
			"ab1":  cells(AblationPointer(w, 1), 0, 1, 2),
			"ab2":  cells(AblationAlgorithms(w, 1), 0, 1, 2, 3, 5),
			"x1":   cells(SpanningForestExperiment(w, 1), 0, 1, 2, 3, 5, 6),
		}
		for name, have := range got {
			if want := pinnedCells[w.Kind+"/"+name]; have != want {
				t.Errorf("%s %s:\ngot:\n%swant:\n%s", w, name, have, want)
			}
		}
	}
}

// pinnedCells holds the cells TestFigureCellsPinned expects, keyed by
// workload kind and experiment.
var pinnedCells = map[string]string{
	"random/fig1": `1.00e-07 1 1.00 1.00 0.4554 1214
1.00e-06 1 1.00 1.00 0.4554 1214
1.00e-05 1 1.00 1.00 0.4554 1214
1.00e-04 1 1.00 1.00 0.4554 1214
0.0010 5 1.00 0.2002 0.4559 1214
0.0030 15 1.00 0.0668 0.4568 1214
0.0100 50 1.01 0.0204 0.4628 1214
0.0300 150 1.03 0.0070 0.4797 1214
0.1000 500 1.14 0.0026 0.5420 1214
0.3000 1500 1.54 0.0018 0.8638 1214
1.00 5000 2.60 0.0018 2.30 1214
`,
	"random/fig2": `1.00e-07 1 1.00 1.00 2.18 2259
1.00e-06 1 1.00 1.00 2.18 2259
1.00e-05 1 1.00 1.00 2.18 2259
1.00e-04 3 1.00 0.3334 2.18 2259
0.0010 25 1.00 0.0400 2.18 2259
0.0030 75 1.00 0.0134 2.19 2259
0.0100 250 1.00 0.0040 2.20 2259
0.0300 750 1.01 0.0014 2.24 2259
0.1000 2500 1.07 4.80e-04 2.48 2259
0.3000 7500 1.32 2.80e-04 3.48 2259
1.00 25000 2.20 2.80e-04 6.99 2259
`,
	"random/luby": `prefixMIS 201 5021 11452 1214
luby 4 7145 56596 1209
`,
	"random/ab1": `1.00e-04 11384 11384
0.0010 11397 11390
0.0100 11570 11506
0.1000 13551 13134
1.00 57379 30332
`,
	"random/ab2": `mis/sequential 5000 5000 11384 1214
mis/rootset 5 1214 29814 1214
mis/prefix 201 5021 11452 1214
mis/parallel 9 12986 57379 1214
mis/luby 4 7145 56596 1209
mm/sequential 25000 25000 50000 2259
mm/rootset 6 2259 64379 2259
mm/prefix 201 25051 54722 2259
mm/parallel 7 55057 174746 2259
`,
	"random/x1": `sequential - 25000 25000 4999 yes
relaxed 0.0010 1002 25030 4999 yes
relaxed 0.0100 102 25333 4999 no
relaxed 0.1000 13 30184 4999 no
relaxed 1.00 4 70535 4999 no
exact(1/16) 1.00e-04 1562 1562 311 yes
exact(1/16) 0.0010 791 1581 311 yes
`,
	"rmat/fig1": `1.00e-07 1 1.00 1.00 0.4950 1449
1.00e-06 1 1.00 1.00 0.4950 1449
1.00e-05 1 1.00 1.00 0.4950 1449
1.00e-04 1 1.00 1.00 0.4950 1449
0.0010 5 1.00 0.2004 0.4958 1449
0.0030 13 1.00 0.0774 0.4977 1449
0.0100 41 1.01 0.0249 0.5023 1449
0.0300 123 1.04 0.0088 0.5204 1449
0.1000 410 1.15 0.0032 0.5891 1449
0.3000 1229 1.52 0.0022 0.9256 1449
1.00 4096 2.47 0.0022 2.22 1449
`,
	"rmat/fig2": `1.00e-07 1 1.00 1.00 2.16 1611
1.00e-06 1 1.00 1.00 2.16 1611
1.00e-05 1 1.00 1.00 2.16 1611
1.00e-04 2 1.00 0.5000 2.16 1611
0.0010 20 1.00 0.0500 2.16 1611
0.0030 60 1.00 0.0167 2.17 1611
0.0100 200 1.01 0.0050 2.18 1611
0.0300 600 1.02 0.0017 2.24 1611
0.1000 2000 1.09 6.00e-04 2.52 1611
0.3000 6000 1.36 4.50e-04 3.60 1611
1.00 20000 2.26 4.50e-04 7.20 1611
`,
	"rmat/luby": `prefixMIS 197 4119 9978 1449
luby 5 5629 43304 1476
`,
	"rmat/ab1": `1.00e-04 9901 9901
0.0010 9916 9916
0.0100 10047 10024
0.1000 11782 15027
1.00 44388 38617
`,
	"rmat/ab2": `mis/sequential 4096 4096 9901 1449
mis/rootset 5 1449 23450 1449
mis/prefix 197 4119 9978 1449
mis/parallel 9 10119 44388 1449
mis/luby 5 5629 43304 1476
mm/sequential 20000 20000 40000 1611
mm/rootset 8 1611 51392 1611
mm/prefix 201 20056 43446 1611
mm/parallel 9 45186 143966 1611
`,
	"rmat/x1": `sequential - 20000 20000 3975 yes
relaxed 0.0010 1001 20011 3975 yes
relaxed 0.0100 102 20243 3975 no
relaxed 0.1000 12 22269 3975 no
relaxed 1.00 3 36311 3975 no
exact(1/16) 1.00e-04 1250 1250 254 yes
exact(1/16) 0.0010 637 1273 254 yes
`,
}
