// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 1-4 and the in-text claims) on the host machine.
// Each experiment builds the paper's workloads (sparse random and rMat
// graphs, scaled by a flag), runs the algorithms under timing and
// machine-independent work counters, and renders the same series the
// paper plots. cmd/bench is the command-line front end; bench_test.go at
// the repository root exposes the same experiments as testing.B
// benchmarks.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Table is a rendered experiment: a title, column headers, data rows and
// free-form notes (the paper-correspondence commentary).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Env returns a one-line description of the benchmarking environment,
// the reproduction counterpart of the paper's hardware paragraph (32-core
// Dell PowerEdge 910; here whatever the container provides).
func Env() string {
	return fmt.Sprintf("go=%s os=%s arch=%s cpus=%d gomaxprocs=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// MedianTime runs f reps times and returns the median wall-clock
// duration. reps < 1 is treated as 1.
func MedianTime(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2]
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	case v >= 0.001:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

func fmtMS(ms float64) string { return fmt.Sprintf("%.2fms", ms) }

// must unwraps a run under a background context, which cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
