// Package coloring implements greedy graph coloring — first-fit in
// priority order — as a problem on the shared speculative-prefix engine
// (internal/engine), extending the paper's conclusion ("we believe that
// our approach can be applied to sequential greedy algorithms for other
// problems") to a problem whose per-iterate decision is a value, not a
// bit: each vertex takes the smallest color absent among its
// earlier-priority neighbors. For a fixed order the parallel algorithm
// returns exactly the sequential first-fit coloring — the
// lexicographically-first greedy coloring — at any prefix size, grain
// and thread count; the number of colors is at most maxdeg+1.
package coloring

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// uncolored marks a vertex whose color is not yet decided.
const uncolored int32 = -1

// Stats reuses the engine counters (Rounds, Attempts, EdgeInspections,
// PrefixSize) with the same conventions as MIS/MM/SF.
type Stats = core.Stats

// Result is the outcome of a greedy coloring computation.
type Result struct {
	// Colors[v] is the color of vertex v, in [0, NumColors).
	Colors []int32
	// NumColors is the number of distinct colors used (max color + 1).
	NumColors int
	// Stats are the run's cost counters.
	Stats Stats
}

// newResult maps colors, the rank-indexed colors of a run, back to
// vertices through order and wraps them with their color count.
func newResult(colors, order []int32, stats Stats) *Result {
	out := make([]int32, len(colors))
	num := int32(0)
	for r, c := range colors {
		out[order[r]] = c
		num = max(num, c+1)
	}
	return &Result{Colors: out, NumColors: int(num), Stats: stats}
}

// Equal reports whether two results assign identical colors.
func (r *Result) Equal(other *Result) bool {
	if len(r.Colors) != len(other.Colors) {
		return false
	}
	for i := range r.Colors {
		if r.Colors[i] != other.Colors[i] {
			return false
		}
	}
	return true
}

// Options configures the parallel coloring algorithm: the engine's
// window, grain and telemetry knobs (see engine.Options; PrefixSize and
// PrefixFrac count vertices), plus the fields below. The coloring stays
// bit-identical to the sequential first-fit one for every window
// schedule.
type Options struct {
	engine.Options
	// Parents, if non-nil, are the rank-space parent lists of the input
	// graph under the run's order (see core.BuildParents), reused by
	// PrefixColoring instead of building them per run.
	Parents *core.Parents
	// Workspace, if non-nil, supplies pooled per-run buffers reused
	// across runs. nil means allocate fresh buffers.
	Workspace *Workspace
}

// SequentialColoring computes the first-fit greedy coloring of g under
// ord: vertices in priority order, each taking the smallest color not
// used by an earlier neighbor. It is the engine's sequential scan over
// the adapter PrefixColoring runs, deciding each rank with the same
// first-fit scan (checkFirstFit) over the same rank-space parent lists
// (opt.Parents when set, built for this run otherwise).
//
// Stats: Rounds = Attempts = n, and EdgeInspections counts the parents
// the decisions scan. ctx is checked every 4,096 vertices, and pooled
// buffers come from opt.Workspace when set.
func SequentialColoring(ctx context.Context, g *graph.Graph, ord core.Order, opt Options) (*Result, error) {
	prob, _ := newColorProblem(g, ord, opt)
	stats, err := engine.Scan(ctx, len(prob.colors), prob)
	if err != nil {
		return nil, err
	}
	return newResult(prob.colors, ord.Order, stats), nil
}

// PrefixColoring computes the first-fit greedy coloring with the
// prefix-based speculative engine. Each round, every active vertex
// scans its earlier-priority neighbors: if any is still uncolored the
// vertex retries next round; otherwise it takes the smallest absent
// color and commits. The earliest active vertex always commits, so the
// loop makes progress, and because a vertex decides only after all of
// its earlier neighbors are final, the coloring equals the sequential
// first-fit one for every window schedule, grain and thread count.
//
// ctx is checked once per round, so a cancelled context aborts within
// one round and returns ctx.Err(). Pooled buffers come from
// opt.Workspace when set; the rank-space parent lists from opt.Parents
// when set, and are built for this run otherwise. The run colors ranks;
// the colors are mapped back to vertices through ord.Order at the end.
func PrefixColoring(ctx context.Context, g *graph.Graph, ord core.Order, opt Options) (*Result, error) {
	prob, ws := newColorProblem(g, ord, opt)
	stats, err := engine.Run(ctx, len(prob.colors), prob, opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return newResult(prob.colors, ord.Order, stats), nil
}

// newColorProblem is the set-up PrefixColoring and SequentialColoring
// share: the workspace, the rank-indexed color array and the
// rank-space parent lists.
func newColorProblem(g *graph.Graph, ord core.Order, opt Options) (*colorProblem, *Workspace) {
	n := g.NumVertices()
	if ord.Len() != n {
		panic("coloring: order size does not match graph")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	colors := engine.Grow32(&ws.colors, n)
	engine.Fill32(colors, uncolored)
	parents := opt.Parents
	if parents == nil {
		parents = core.BuildParents(g, ord)
	}
	return &colorProblem{parents: parents, colors: colors}, ws
}

// colorProblem is the engine adapter for first-fit coloring, indexed by
// rank. The check phase reads only colors written in previous rounds
// and the commit phase writes each rank's own color, so no atomics are
// needed — the engine's fork-join barrier is the synchronization,
// exactly as in the MIS problem. The outcome payload is color+1: the
// engine only gives meaning to zero ("retry"), so any committed color,
// including color 0, maps to a nonzero outcome.
type colorProblem struct {
	parents *core.Parents
	colors  []int32
}

func (p *colorProblem) Check(act, outcome []int32, lo, hi int) int64 {
	var local int64
	for i := lo; i < hi; i++ {
		c, insp := checkFirstFit(p.parents.Of(act[i]), p.colors)
		local += insp
		if c >= 0 {
			outcome[i] = c + 1
		}
	}
	return local
}

func (p *colorProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		if outcome[i] != engine.Undecided {
			p.colors[act[i]] = outcome[i] - 1
		}
	}
	return 0
}

// Decide is the sequential step: with every earlier rank colored,
// checkFirstFit always returns a color.
func (p *colorProblem) Decide(r int32) int64 {
	c, insp := checkFirstFit(p.parents.Of(r), p.colors)
	p.colors[r] = c
	return insp
}

// checkFirstFit decides a vertex from its parents ps: it returns
// (-1, inspections) if some parent is still uncolored (retry next
// round), else the smallest color absent among them. The scan is
// allocation-free: it finds the answer through 64-color bitmask
// windows, rescanning the parent list once per window, so a vertex
// whose answer is color c costs O(len(ps)·⌈(c+1)/64⌉) inspections — one
// pass for the overwhelming majority of vertices, and never any
// per-vertex scratch that the engine's concurrent chunks would have to
// allocate or share.
func checkFirstFit(ps []int32, colors []int32) (int32, int64) {
	var inspections int64
	for base := int32(0); ; base += 64 {
		var mask uint64
		for _, u := range ps {
			inspections++
			c := colors[u]
			if c == uncolored {
				return -1, inspections
			}
			if c >= base && c < base+64 {
				mask |= 1 << uint(c-base)
			}
		}
		if mask != ^uint64(0) {
			return base + int32(bits.TrailingZeros64(^mask)), inspections
		}
	}
}

// Verify checks that colors is a proper coloring of g: every vertex
// colored (non-negative) and no edge monochromatic. It returns nil on
// success and a descriptive error on the first violation.
func Verify(g *graph.Graph, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		if colors[v] < 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		for _, u := range g.Neighbors(int32(v)) {
			if colors[u] == colors[int32(v)] {
				return fmt.Errorf("coloring: edge {%d,%d} monochromatic (color %d)", v, u, colors[v])
			}
		}
	}
	return nil
}
