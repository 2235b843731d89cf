// Package engine holds the three ordered schedules the greedy problems
// here share; a problem package supplies its decisions through one
// interface per schedule. Run is the paper's prefix-based speculative
// round loop: take the earliest unresolved iterates in priority-rank
// order as the active window, check each against the state left by
// strictly earlier-priority iterates, commit the winners, and retry the
// losers next round with newly admitted iterates. MIS, maximal
// matching, spanning forest (strict and relaxed), greedy coloring and
// greedy hitting set all ride it; a Problem supplies how an iterate is
// checked and what committing it writes, exactly the factoring of
// parlaylib's speculative_for. Scan is the sequential algorithm, one
// Decider decision per rank in order. Steps is the root-set schedule of
// the linear-work MIS and MM (Lemmas 4.2 and 5.3): a Stepper supplies
// the first frontier, the kills of an accepted rank, the check that
// finds the next frontier, and the writes that check defers.
//
// Iterates are priority ranks: the engine runs over 0..n-1, rank 0
// first, and never sees an order. A problem package owns the mapping
// from ranks to its items. It lays its input out by rank once per run,
// or reads a layout its caller cached for the input and order (parent
// lists whose entries are ranks, edges gathered into rank order), so a
// check compares and indexes ranks directly, as
// parlaylib's speculative_for MIS compares iterate ids; and it maps its
// result back to item ids through the order once, when the run ends.
//
// Run owns everything the four formerly hand-specialized loops
// duplicated: window refill and the shrink-tail slide that keeps the
// active set equal to the earliest unresolved ranks, the two-phase
// fork-join execution, adaptive window control (AdaptiveController),
// per-round context checks, pooled window/outcome buffers (a
// Workspace, passed to Run as its last argument), and the per-round
// observer hook. Its knobs — window, grain, observer, phase clock — are
// declared once, in Options, which every problem package's own Options
// embeds.
//
// Both phases of every round run on one parallel.Team that lives for
// the whole Run, so a round is two fork-joins on resident workers, as
// in parlaylib's speculative_for, and allocates nothing. Each chunk of
// the check phase clears its own outcomes before deciding them; each
// chunk of the commit phase, after its Commit, packs its undecided
// ranks to the front of its own range and reports what it kept and
// inspected in its own slot. A short sequential merge then
// concatenates the chunks' retries in rank order. That pack is why a
// Commit must read and write act only inside its own [lo, hi) (see
// Problem).
//
// Determinism contract: a Problem's Check phase may read only state
// written in previous rounds, plus place per-iterate reservation bids
// through the parallel package's atomic write-min helpers. Its Commit
// phase may write only state no other in-flight iterate writes, and an
// iterate may clear there a reservation slot it holds (its bid won the
// write-min): reservation-based problems return every slot to neutral
// that way, so the loop has two phases, not three. Other iterates'
// Commits load a slot while its holder clears it, so such a slot is
// accessed atomically everywhere; each of them sees the holder's bid
// or the neutral value, never its own bid, and its outcome does not
// depend on the interleaving. Under that contract the committed
// solution is a pure function of the priority order — identical for
// every window schedule, grain and GOMAXPROCS — which is the paper's
// Theorem 4.5 argument and the property the service layer's
// idempotency keys rely on. Releasing in Commit is the reserve/commit
// split of parlaylib's speculative_for.
package engine

import (
	"context"

	"repro/internal/parallel"
)

// Per-iterate outcome codes. The engine itself gives meaning only to
// Undecided: an iterate whose outcome is still Undecided after the
// commit phase is retried next round; any other value resolves it.
// Committed and Dropped are the conventional values (aligned with the
// in/out status codes of the problem packages); a Problem may store any
// nonzero payload instead — greedy coloring records color+1 — as long
// as zero keeps meaning "retry".
const (
	Undecided int32 = 0
	Committed int32 = 1
	Dropped   int32 = 2
)

// A Problem supplies the two phases of one speculative round over a
// chunk [lo, hi) of the active window act. act holds priority ranks in
// increasing order, so act[i] is both the iterate's index into the
// problem's rank-space state and its write-min reservation bid; which
// vertex, edge or element a rank denotes is the problem's business
// (see the package doc). Both phases run on the run's parallel.Team,
// so an implementation is called once per chunk — one dynamic dispatch
// per grain-sized block, not per iterate — and runs concurrently with
// itself on disjoint chunks. The fork-join barrier between the phases
// is the only synchronization the engine provides; it is also all the
// round-synchronous algorithms need.
//
// Check decides iterates against the state of previous rounds: for
// each i in [lo, hi) it may write outcome[i] (leave Undecided to
// retry) and place reservation bids, but must not write state another
// active iterate's Check reads this round. Commit applies the
// decisions: it may write the problem's solution state for iterates it
// resolves, and must set outcome[i] nonzero for every iterate resolved
// this round. An iterate holding a reservation releases it in Commit,
// whether or not it commits, so every slot bid on this round is
// neutral again when the commit phase ends. Commit reads and writes
// act only inside its own [lo, hi): as soon as a chunk's Commit
// returns, the engine packs that chunk's undecided ranks in place
// while other chunks are still committing. Check may read all of act.
// Both return the number of neighbor/endpoint inspections performed,
// the paper's fine-grained work measure.
type Problem interface {
	Check(act, outcome []int32, lo, hi int) int64
	Commit(act, outcome []int32, lo, hi int) int64
}

// A WindowSizer is a Problem that keeps state per window slot, indexed
// like outcome. Run calls SizeWindow once, before the first round, with
// the largest window the run can attempt; every slot index a Check or
// Commit sees is below it, so the problem sizes its slot buffers once
// per run.
type WindowSizer interface {
	SizeWindow(bound int)
}

// Options configures one engine run; the zero value runs the default
// fixed window (DefaultPrefixFrac of the input) at the default grain.
type Options struct {
	// PrefixSize fixes the number of iterates examined per round. If
	// zero, PrefixFrac is used instead.
	PrefixSize int
	// PrefixFrac sets the window as ⌈PrefixFrac·n⌉ (see CeilFrac); if
	// both are zero, DefaultPrefixFrac applies.
	PrefixFrac float64
	// Adaptive replaces the fixed window with the measured
	// doubling/halving schedule of AdaptiveController. An explicit
	// PrefixSize/PrefixFrac seeds the initial window; otherwise runs
	// start at AdaptiveStartWindow. The schedule is a deterministic
	// function of the per-round counters, so adaptive runs remain
	// bit-identical across machines and reruns.
	Adaptive bool
	// Grain is the parallel-loop grain; 0 means parallel.DefaultGrain.
	Grain int
	// OnRound, if non-nil, is called after every round with that
	// round's statistics, on the round loop's goroutine.
	OnRound func(RoundStat)
	// Clock, if non-nil, enables per-phase wall-time attribution: it is
	// read at every phase boundary and the deltas are reported through
	// RoundStat's CheckNS/CommitNS/SlideNS fields. It must be a
	// monotonic nanosecond clock. The engine itself never reads wall
	// time (results are pure functions of the order, and this package is
	// in nodeterminism's scope) — the caller injects the clock, and only
	// telemetry ever sees its values. nil keeps the dark path
	// byte-identical: no clock reads, no extra work beyond one nil test
	// per phase.
	Clock func() int64
}

// PrefixFor resolves the fixed window size the options denote for an
// input of n iterates: PrefixSize, else ⌈PrefixFrac·n⌉, else
// ⌈DefaultPrefixFrac·n⌉, clamped to [1, n].
func (o Options) PrefixFor(n int) int {
	p := o.PrefixSize
	if p <= 0 {
		frac := o.PrefixFrac
		if frac <= 0 {
			frac = DefaultPrefixFrac
		}
		p = CeilFrac(frac, n)
	}
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return p
}

// AdaptiveInitial resolves the initial window of an adaptive run: an
// explicit PrefixSize or PrefixFrac seeds the controller (the fixed
// configuration becomes the starting point), otherwise the run starts
// at AdaptiveStartWindow, clamped to [1, n].
func (o Options) AdaptiveInitial(n int) int {
	if o.PrefixSize > 0 || o.PrefixFrac > 0 {
		return o.PrefixFor(n)
	}
	w := AdaptiveStartWindow
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Workspace holds the engine's pooled per-run buffers, reused across
// runs on same-or-smaller inputs: Run's active window, per-iterate
// outcome array and per-chunk round slots, and Steps' frontier pair
// (active and next) and per-chunk step slots. Problem-side state
// (statuses, mates, reservations) lives in the problem packages' own
// workspaces. Not safe for concurrent use; the zero value is ready.
type Workspace struct {
	active  []int32
	next    []int32
	outcome []int32
	chunks  []chunk
	steps   []stepChunk
}

// chunk is what one grain-aligned chunk of a round's window reports to
// the sequential merge: where the chunk ends, how many of its ranks
// stay undecided (compacted to the front of its own range), and the
// inspections its Check and Commit made. Each chunk writes only its
// own slot, padded to a cache line so neighbouring chunks' writes do
// not contend.
type chunk struct {
	hi          int
	kept        int
	inspections int64
	_           [64 - 24]byte
}

// Run executes the speculative-prefix round loop over the n iterates
// 0..n-1, which are priority ranks (rank 0 is the earliest), until all
// of them are resolved, and returns the run's cost counters. ctx is
// checked once per round — the hot phases never see it — so a
// cancelled context aborts within one round and returns ctx.Err().
// ws supplies the pooled window/outcome buffers reused across runs;
// nil allocates fresh ones.
func Run(ctx context.Context, n int, p Problem, opt Options, ws *Workspace) (Stats, error) {
	if ws == nil {
		ws = new(Workspace)
	}
	// The window is the per-round cap on attempted iterates: the fixed
	// prefix, or — under adaptive scheduling — whatever the controller
	// settled on after the previous round. Any window sequence yields
	// the same committed solution for a deterministic Problem: the
	// active set always holds the earliest unresolved iterates in rank
	// order, and Check only commits iterates whose earlier-priority
	// dependencies are resolved.
	//
	// bound is the largest window the run can attempt, decided once: the
	// fixed window, or the larger of the adaptive controller's initial
	// window and its growth cap (AdaptiveGrowCap reads the processor
	// count, so it is read here only). The active set never holds more,
	// and a WindowSizer problem sizes its slot buffers to it.
	window := opt.PrefixFor(n)
	bound := window
	var ctrl *AdaptiveController
	if opt.Adaptive {
		growCap := AdaptiveGrowCap(n)
		ctrl = NewAdaptiveController(opt.AdaptiveInitial(n), growCap, n)
		window = ctrl.Window()
		bound = max(window, growCap)
	}
	if sz, ok := p.(WindowSizer); ok {
		sz.SizeWindow(bound)
	}
	maxWindow := window
	grain := opt.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}

	stats := Stats{}
	active := GrowActive(&ws.active, bound)
	nextRank := 0
	resolved := 0
	// Phase profiling: tPrev carries the last clock reading across
	// phase boundaries, so consecutive deltas tile the clock's span with
	// no gaps — the inter-round work (OnRound callbacks, the ctx check,
	// window refill, the merge of the retry set) lands in the next
	// round's slide bucket rather than vanishing. tPrev starts at the
	// clock's epoch (solver entry, where the facade constructs the
	// clock), not at loop entry, so one-time setup before the loop —
	// priority-order derivation, the problem's rank-space layout (a
	// parent-list build or an edge gather), workspace growth — is
	// charged to the first round's slide bucket and the per-phase sums
	// over a run reconstruct the run's wall time up to result
	// extraction, not just the loop's.
	clock := opt.Clock
	var tPrev int64

	// The phase bodies are built once per run over the current round's
	// act, outcome and chunks. Check clears its chunk's outcomes first:
	// problems are entitled to leave a slot untouched to mean "retry",
	// so stale values from an earlier round must not leak through the
	// pooled buffer.
	team := parallel.NewTeam()
	defer team.Close()
	var act, outcome []int32
	var chunks []chunk
	check := func(lo, hi int) {
		Fill32(outcome[lo:hi], Undecided)
		chunks[lo/grain].inspections = p.Check(act, outcome, lo, hi)
	}
	commit := func(lo, hi int) {
		c := &chunks[lo/grain]
		c.inspections += p.Commit(act, outcome, lo, hi)
		kept := lo
		for i := lo; i < hi; i++ {
			if outcome[i] == Undecided {
				act[kept] = act[i]
				kept++
			}
		}
		c.hi, c.kept = hi, kept-lo
	}

	for resolved < n {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		// Refill the window with the earliest unresolved iterates; the
		// active set's capacity is bound, so this never reallocates.
		if k := min(window-len(active), n-nextRank); k > 0 {
			fill := active[len(active) : len(active)+k]
			for i := range fill {
				fill[i] = int32(nextRank + i)
			}
			active = active[:len(active)+k]
			nextRank += k
		}
		// A shrunken window attempts only the earliest unresolved
		// iterates; the tail of the active set waits for a later round.
		act = active
		if len(act) > window {
			act = act[:window]
		}
		roundWindow := window
		if roundWindow > maxWindow {
			maxWindow = roundWindow
		}
		stats.Rounds++
		stats.Attempts += int64(len(act))
		outcome = Grow32(&ws.outcome, len(act))
		chunks = Grow(&ws.chunks, (len(act)+grain-1)/grain)

		var checkNS, commitNS, slideNS int64
		if clock != nil {
			t := clock()
			slideNS = t - tPrev
			tPrev = t
		}

		// Check phase: decide each active iterate against the state of
		// previous rounds. The problem writes outcome[i] (and places
		// reservation bids); the fork-join barrier below makes those
		// writes visible to the commit phase.
		team.ForRange(len(act), grain, check)
		if clock != nil {
			t := clock()
			checkNS = t - tPrev
			tPrev = t
		}

		// Commit phase: apply the decisions to the problem's state and
		// compact each chunk's retries.
		team.ForRange(len(act), grain, commit)
		if clock != nil {
			t := clock()
			commitNS = t - tPrev
			tPrev = t
		}

		// Merge: concatenate the chunks' retries in chunk order, which
		// keeps them rank-sorted. A chunk's retries sit at or after the
		// write position, so the copies move them down. The team cuts
		// both phases identically, and with one chunk (one processor,
		// or a window within one grain) chunk 0 spans the window.
		before := len(act)
		kept := 0
		var roundInspections int64
		for lo := 0; lo < before; {
			c := &chunks[lo/grain]
			kept += copy(act[kept:], act[lo:lo+c.kept])
			roundInspections += c.inspections
			lo = c.hi
		}
		if before < len(active) {
			// Slide the unattempted tail up against the kept retries;
			// both are rank-sorted and every kept retry precedes the
			// tail, so the active set stays the earliest unresolved
			// iterates in order.
			moved := copy(active[kept:], active[before:])
			active = active[:kept+moved]
		} else {
			active = active[:kept]
		}
		resolvedThis := before - kept
		resolved += resolvedThis
		stats.EdgeInspections += roundInspections
		if ctrl != nil {
			ctrl.Observe(before, resolvedThis, roundInspections)
			window = ctrl.Window()
		}
		if clock != nil {
			t := clock()
			slideNS += t - tPrev
			tPrev = t
		}
		if opt.OnRound != nil {
			opt.OnRound(RoundStat{
				Round:           stats.Rounds,
				PrefixSize:      roundWindow,
				Attempted:       before,
				Accepted:        resolvedThis,
				EdgeInspections: roundInspections,
				RetryTail:       kept,
				CheckNS:         checkNS,
				CommitNS:        commitNS,
				SlideNS:         slideNS,
			})
		}
	}
	stats.PrefixSize = maxWindow
	return stats, nil
}

// Grow returns *buf resized to n items, reallocating only when the
// pooled capacity is insufficient: Run's and Steps' chunk slots, and a
// WindowSizer's slot buffers. Contents are unspecified.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
