package engine

import "fmt"

// Stats records machine-independent cost measures of a run, the
// quantities plotted by the paper's Figures 1 and 2.
type Stats struct {
	// Rounds is the number of outer-loop rounds: prefixes taken by the
	// prefix-based algorithm (one per round, failed iterates retried),
	// steps of the step-synchronous algorithms, or rounds of Luby. The
	// paper uses it as the (inverse) parallelism estimate in Figures
	// 1(b)/1(e). A sequential run has Rounds == number of items.
	Rounds int64
	// Attempts is the total number of iterate-processings summed over
	// rounds, the paper's "total work" (Figures 1(a)/1(d)): a sequential
	// run attempts each item exactly once, so Attempts == items; parallel
	// runs retry failed iterates and so do more work.
	Attempts int64
	// EdgeInspections counts neighbor-status reads, a finer-grained work
	// measure reported alongside Attempts.
	EdgeInspections int64
	// PrefixSize is the resolved prefix size used by prefix-based runs
	// (0 for the other algorithms). Adaptive runs report the largest
	// window any round actually used (a growth decision after the final
	// round is not reported — no round ran at that size).
	PrefixSize int
}

func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d attempts=%d inspections=%d prefix=%d",
		s.Rounds, s.Attempts, s.EdgeInspections, s.PrefixSize)
}

// RoundStat describes one completed round of a round-synchronous
// algorithm (prefix-based, root-set, Luby; the strictly sequential
// scans do not report — their "rounds" are single items), passed to
// Options.OnRound; the facade re-exports it as RoundInfo. Summed over a
// run, Attempted is the paper's total work (Figure 1(a)/1(d)), the
// number of callbacks is Rounds (Figure 1(b)/1(e)), and EdgeInspections
// is the finer-grained work measure — so an observer sees the paper's
// Figure 1 quantities accumulate live.
type RoundStat struct {
	// Round is the 1-based round index.
	Round int64
	// PrefixSize is the window size of this round: the maximum number
	// of iterates attempted (0 for algorithms without a prefix window,
	// root-set and Luby). Fixed-prefix runs report the same value every
	// round; adaptive runs report the controller's current window, so an
	// observer watches the schedule evolve.
	PrefixSize int
	// Attempted is the number of iterates processed this round.
	Attempted int
	// Accepted is the number of iterates that reached their final
	// status this round — committed into the solution or ruled out —
	// and therefore will not be retried.
	Accepted int
	// EdgeInspections is the number of neighbor/endpoint status reads
	// performed this round.
	EdgeInspections int64
	// RetryTail is the number of attempted iterates left Undecided this
	// round — the retry set carried into the next round (Attempted -
	// Accepted for prefix runs). A persistently large tail relative to
	// the window is the signature of a hot dependency chain.
	RetryTail int
	// CheckNS/CommitNS/SlideNS decompose the round's wall time by
	// phase, in nanoseconds: the check fork-join, which also clears each
	// chunk's outcomes; the commit fork-join, which also packs each
	// chunk's retries to the front of the chunk; and everything else —
	// window refill, the sequential merge of the chunks' retries and the
	// slide of the unattempted tail, and adaptive-controller
	// bookkeeping. All three are 0 unless Options.Clock is set; when it
	// is, consecutive rounds tile the loop's span with no gaps, so the
	// per-phase sums over a run reconstruct where the loop's wall time
	// went (the work/span decomposition the paper's Figure 1 analysis
	// reasons about). ResetNS is always 0: there is no reset phase, as
	// reservation-based problems release their bids inside Commit, and
	// the field stays for consumers that report it.
	CheckNS  int64
	CommitNS int64
	ResetNS  int64
	SlideNS  int64
}
