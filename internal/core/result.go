package core

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Vertex statuses shared by all MIS implementations. A status is
// monotone: it moves from undecided to exactly one of in/out and never
// changes again — the invariant that makes the optimistic parallel
// attempts safe (a vertex only enters the MIS after observing final
// "out" for every earlier neighbor). The values deliberately coincide
// with the engine's Undecided/Committed/Dropped outcome codes, so the
// prefix loop's per-round outcome array and the status array speak the
// same language.
const (
	statusUndecided = engine.Undecided
	statusIn        = engine.Committed
	statusOut       = engine.Dropped
)

// Stats records machine-independent cost measures of a run, the
// quantities plotted by the paper's Figures 1 and 2. It is the
// engine's Stats type; see engine.Stats for the field conventions.
type Stats = engine.Stats

// RoundStat describes one completed round of a round-synchronous
// algorithm, passed to Options.OnRound; see engine.RoundStat.
type RoundStat = engine.RoundStat

// Result is the outcome of an MIS computation.
type Result struct {
	// InSet[v] reports whether vertex v is in the independent set.
	InSet []bool
	// Set lists the members of the independent set in increasing vertex
	// order.
	Set []graph.Vertex
	// Stats are the cost counters of the run.
	Stats Stats
}

// newResult builds the result from the final statuses: status[r] is the
// status of vertex order[r] (order nil means status is vertex-indexed).
func newResult(status, order []int32, stats Stats) *Result {
	n := len(status)
	in := make([]bool, n)
	parallel.For(n, 4096, func(r int) {
		v := int32(r)
		if order != nil {
			v = order[r]
		}
		in[v] = status[r] == statusIn
	})
	set := parallel.PackIndex(n, 4096, func(i int) bool { return in[i] })
	return &Result{InSet: in, Set: set, Stats: stats}
}

// Size returns the number of vertices in the set.
func (r *Result) Size() int { return len(r.Set) }

// Equal reports whether two results select exactly the same set.
func (r *Result) Equal(other *Result) bool {
	if len(r.Set) != len(other.Set) {
		return false
	}
	for i := range r.Set {
		if r.Set[i] != other.Set[i] {
			return false
		}
	}
	return true
}

// Options configures the parallel MIS algorithms.
type Options struct {
	// PrefixSize fixes the number of iterates examined per round of the
	// prefix-based algorithm. If zero, PrefixFrac is used instead.
	PrefixSize int
	// PrefixFrac sets the prefix size as ⌈PrefixFrac·n⌉ (see CeilFrac).
	// If both PrefixSize and PrefixFrac are zero, DefaultPrefixFrac is
	// used. PrefixFrac = 1 processes the whole remaining input each
	// round (maximum parallelism, maximum redundant work); prefix size 1
	// degenerates to the sequential algorithm.
	PrefixFrac float64
	// Adaptive replaces the fixed window of the prefix-based algorithms
	// with a measured schedule: an AdaptiveController doubles or halves
	// the next round's window from the previous round's
	// resolved/attempted ratio and edge-inspection cost, bounded by
	// [1, n]. An explicit PrefixSize/PrefixFrac seeds the initial
	// window; otherwise the run starts at AdaptiveStartWindow. Results
	// are bit-identical to fixed-prefix and sequential runs: the window
	// changes only how many of the earliest unresolved iterates run per
	// round, never their order. Ignored by the non-prefix algorithms.
	Adaptive bool
	// Grain is the parallel-loop grain size; 0 means
	// parallel.DefaultGrain (256, as in the paper).
	Grain int
	// Pointered enables the parent-pointer optimization of Lemma 4.1:
	// each iterate resumes scanning its earlier neighbors where the
	// previous attempt stalled instead of rescanning from scratch. The
	// default (false) matches the PBBS implementation the paper measures
	// and its work curve.
	Pointered bool
	// Parents, if non-nil, are the rank-space parent lists of the input
	// graph under the run's order (see BuildParents: row r holds the
	// ranks of the earlier neighbors of the vertex of rank r), reused by
	// PrefixMIS and ParallelMIS instead of building them per run. They
	// must match the graph and order passed with these options.
	Parents *Parents
	// OnRound, if non-nil, is called after every round of the
	// round-synchronous algorithms (prefix-based, root-set, Luby) with
	// that round's statistics. It exposes the per-round profile (how
	// failed iterates accumulate at large prefixes) at no cost when
	// unset. The callback runs on the round loop's goroutine, between
	// rounds; it must not block for long.
	OnRound func(RoundStat)
	// Clock, if non-nil, enables the engine's per-phase wall-time
	// attribution (see engine.Options.Clock): a caller-injected
	// monotonic nanosecond clock whose readings surface only through
	// RoundStat's phase fields, never in results. nil (the default)
	// keeps the dark path free of clock reads.
	Clock func() int64
	// Workspace, if non-nil, supplies pooled per-run buffers reused
	// across runs (see Workspace). nil means allocate fresh buffers.
	Workspace *Workspace
}

// engineOptions translates the MIS options into the engine's form,
// wiring the pooled window buffers when ws is non-nil.
func (o Options) engineOptions(ws *engine.Workspace) engine.Options {
	return engine.Options{
		PrefixSize: o.PrefixSize,
		PrefixFrac: o.PrefixFrac,
		Adaptive:   o.Adaptive,
		Grain:      o.Grain,
		OnRound:    o.OnRound,
		Clock:      o.Clock,
		Workspace:  ws,
	}
}

// DefaultPrefixFrac is the default prefix fraction, chosen near the
// running-time optimum the paper observes (prefix/input between 1e-3
// and 1e-2 on both inputs).
const DefaultPrefixFrac = engine.DefaultPrefixFrac

// CeilFrac returns ⌈frac·n⌉ with exact integer rounding semantics; see
// engine.CeilFrac, the single implementation.
func CeilFrac(frac float64, n int) int { return engine.CeilFrac(frac, n) }

func (o Options) prefixFor(n int) int {
	return o.engineOptions(nil).PrefixFor(n)
}

func (o Options) grain() int {
	if o.Grain <= 0 {
		return parallel.DefaultGrain
	}
	return o.Grain
}
