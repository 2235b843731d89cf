package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/rng"
)

const maxRank = int32(1<<31 - 1)

// residueProblem is a minimal reservation-based Problem: item i belongs
// to class i%k, and the earliest-priority item of each class commits
// while every other member drops — the toy analogue of the MIS/MM
// write-min pattern, exercising both phases: Check bids, and Commit
// resolves the winning bidder and releases its reservation, so every
// slot is neutral again when the round ends. The engine hands it
// ranks; order maps a rank to its item, and the rank is the bid.
type residueProblem struct {
	k      int32
	order  []int32 // priority rank -> item
	owner  []int32 // class -> committed rank, maxRank while unowned
	reserv []int32 // class -> this round's write-min bid
	result []int32 // item -> final outcome code

	// first, when non-nil, forces the same-phase load of a
	// just-released slot (see rendezvous). first[c] is the rank of
	// class c's earliest member: the only item that ever holds c's
	// slot, since every later member bids only while that one is
	// unresolved, and then both are in the same window.
	first      []int32
	arrived    []int32      // class -> losers that reached Commit
	forced     atomic.Int64 // winners that released after a loser arrived
	sawNeutral atomic.Int64 // losing loads that saw the released slot
	sawHeld    atomic.Int64 // losing loads that saw the winner's bid
}

func newResidueProblem(n int, k int32, order []int32) *residueProblem {
	p := &residueProblem{k: k, order: order,
		owner:  make([]int32, k),
		reserv: make([]int32, k),
		result: make([]int32, n),
	}
	for c := range p.owner {
		p.owner[c] = maxRank
		p.reserv[c] = maxRank
	}
	return p
}

// newForcedResidueProblem is newResidueProblem with the rendezvous on.
func newForcedResidueProblem(n int, k int32, order []int32) *residueProblem {
	p := newResidueProblem(n, k, order)
	p.arrived = make([]int32, k)
	p.first = make([]int32, k)
	for c := range p.first {
		p.first[c] = maxRank
	}
	for r, id := range order {
		if cls := id % k; int32(r) < p.first[cls] {
			p.first[cls] = int32(r)
		}
	}
	return p
}

// rendezvous orders one Commit of a forced run. A loser announces
// itself, then loads its class's slot until the winner has released
// it; the winner waits for a loser of its class to announce itself
// before it loads and releases. With fewer classes than workers some
// worker is always free to claim a loser, so the wait ends; the
// deadline only turns a broken schedule into a failure, not a hang. The slot itself is the
// only synchronization from the release to the loser's load, so the
// race detector sees exactly the access pair the contract governs.
func (p *residueProblem) rendezvous(cls, r int32) {
	if r != p.first[cls] {
		atomic.AddInt32(&p.arrived[cls], 1)
		for atomic.LoadInt32(&p.reserv[cls]) != maxRank {
			runtime.Gosched()
		}
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for atomic.LoadInt32(&p.arrived[cls]) == 0 {
		if time.Now().After(deadline) {
			return
		}
		runtime.Gosched()
	}
	p.forced.Add(1)
}

func (p *residueProblem) Check(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		r := act[i]
		id := p.order[r]
		cls := id % p.k
		if atomic.LoadInt32(&p.owner[cls]) < r {
			outcome[i] = engine.Dropped
			p.result[id] = engine.Dropped
			continue
		}
		parallel.WriteMin32(&p.reserv[cls], r)
	}
	return int64(hi - lo)
}

func (p *residueProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		if outcome[i] != engine.Undecided {
			continue
		}
		r := act[i]
		id := p.order[r]
		cls := id % p.k
		if p.first != nil {
			p.rendezvous(cls, r)
		}
		bid := atomic.LoadInt32(&p.reserv[cls])
		if bid == r {
			atomic.StoreInt32(&p.reserv[cls], maxRank)
			atomic.StoreInt32(&p.owner[cls], r)
			outcome[i] = engine.Committed
			p.result[id] = engine.Committed
		} else if bid == maxRank {
			p.sawNeutral.Add(1)
		} else {
			p.sawHeld.Add(1)
		}
	}
	return 0
}

// sequentialResidue is the oracle: scan in rank order, first item of
// each class wins.
func sequentialResidue(n int, k int32, order []int32) []int32 {
	result := make([]int32, n)
	taken := make([]bool, k)
	for _, id := range order {
		if cls := id % k; !taken[cls] {
			taken[cls] = true
			result[id] = engine.Committed
		} else {
			result[id] = engine.Dropped
		}
	}
	return result
}

// The engine must produce the sequential greedy result for every window
// schedule and grain — on a problem with real cross-round retries (a
// class whose earliest member is late in rank order keeps its other
// members bidding and losing until the winner enters the window).
func TestRunMatchesSequentialEverySchedule(t *testing.T) {
	const n, k = 3000, 37
	order := rng.Perm(n, 7)
	want := sequentialResidue(n, k, order)
	for _, opt := range []engine.Options{
		{PrefixSize: 1},
		{PrefixSize: 5, Grain: 2},
		{PrefixFrac: 0.01},
		{PrefixFrac: 0.3, Grain: 64},
		{PrefixFrac: 1},
		{},
		{Adaptive: true},
		{Adaptive: true, PrefixSize: 3},
		{Adaptive: true, PrefixFrac: 0.02, Grain: 5},
	} {
		p := newResidueProblem(n, k, order)
		stats, err := engine.Run(context.Background(), n, p, opt, nil)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		for id := range p.result {
			if p.result[id] != want[id] {
				t.Fatalf("opts %+v: item %d = %d, want %d", opt, id, p.result[id], want[id])
			}
		}
		if stats.Rounds <= 0 || stats.Attempts < int64(n) || stats.EdgeInspections <= 0 {
			t.Fatalf("opts %+v: implausible stats %+v", opt, stats)
		}
	}
}

// Thread-count independence: the same schedule at different GOMAXPROCS
// resolves identically (the paper's central operational claim, held by
// the engine for every Problem honoring the contract).
func TestRunThreadIndependent(t *testing.T) {
	const n, k = 5000, 11
	order := rng.Perm(n, 13)
	want := sequentialResidue(n, k, order)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		p := newResidueProblem(n, k, order)
		if _, err := engine.Run(context.Background(), n, p, engine.Options{PrefixFrac: 0.05, Grain: 3}, nil); err != nil {
			t.Fatal(err)
		}
		for id := range p.result {
			if p.result[id] != want[id] {
				t.Fatalf("GOMAXPROCS=%d: item %d diverged", procs, id)
			}
		}
	}
}

// orderedProblem is residueProblem with an order oracle in Check.
type orderedProblem struct {
	*residueProblem
	unordered atomic.Int64
}

func (p *orderedProblem) Check(act, outcome []int32, lo, hi int) int64 {
	for i := max(lo, 1); i < hi; i++ {
		if act[i-1] >= act[i] {
			p.unordered.Add(1)
		}
	}
	return p.residueProblem.Check(act, outcome, lo, hi)
}

// The act slice handed to every round's Check is strictly
// rank-increasing: each Commit chunk compacts its retries in order and
// the merge concatenates the chunks in order, ahead of the unattempted
// tail and the newly admitted ranks. Fixed, whole-input-fraction and
// adaptive windows, at grains 1–3 and GOMAXPROCS 1 and 2.
func TestActRankIncreasing(t *testing.T) {
	const n, k = 3000, 37
	order := rng.Perm(n, 7)
	want := sequentialResidue(n, k, order)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for grain := 1; grain <= 3; grain++ {
			for _, opt := range []engine.Options{
				{PrefixSize: 64, Grain: grain},
				{PrefixFrac: 0.3, Grain: grain},
				{Adaptive: true, PrefixSize: 16, Grain: grain},
			} {
				name := fmt.Sprintf("GOMAXPROCS=%d, opts %+v", procs, opt)
				p := &orderedProblem{residueProblem: newResidueProblem(n, k, order)}
				retries := 0
				opt.OnRound = func(rs engine.RoundStat) { retries += rs.RetryTail }
				if _, err := engine.Run(context.Background(), n, p, opt, nil); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := p.unordered.Load(); got != 0 {
					t.Fatalf("%s: %d adjacent pairs of act out of rank order", name, got)
				}
				if retries == 0 {
					t.Fatalf("%s: no round retried an iterate, so nothing was compacted", name)
				}
				for id := range p.result {
					if p.result[id] != want[id] {
						t.Fatalf("%s: item %d = %d, want %d", name, id, p.result[id], want[id])
					}
				}
			}
		}
	}
}

// Commit releases a reservation while other iterates of the same phase
// still load it. The forced run makes losing bidders of every class
// load the slot concurrently with, and then after, its winner's
// release, ordered by nothing but the slot itself: a non-atomic access
// on either side is a data race the race detector reports when the
// package runs under -race. The other runs put the same contention
// under several window schedules. Either way the losers must neither
// commit nor leave a slot held for a later round.
func TestCommitReleaseSamePhaseLoad(t *testing.T) {
	const n, k = 512, 3
	order := rng.Perm(n, 21)
	want := sequentialResidue(n, k, order)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	check := func(name string, p *residueProblem, opt engine.Options) {
		t.Helper()
		if _, err := engine.Run(context.Background(), n, p, opt, nil); err != nil {
			t.Fatal(err)
		}
		for id := range p.result {
			if p.result[id] != want[id] {
				t.Fatalf("%s: item %d = %d, want %d", name, id, p.result[id], want[id])
			}
		}
		for c, r := range p.reserv {
			if r != maxRank {
				t.Fatalf("%s: class %d slot left at %d after the run", name, c, r)
			}
		}
	}

	// One full-window round: every class's winner and all its losers
	// commit in the same phase.
	forced := newForcedResidueProblem(n, k, order)
	check("forced", forced, engine.Options{PrefixFrac: 1, Grain: 1})
	if got := forced.forced.Load(); got != k {
		t.Errorf("%d of %d winners released with a loser waiting", got, k)
	}
	if neutral, held := forced.sawNeutral.Load(), forced.sawHeld.Load(); neutral != n-k || held != 0 {
		t.Errorf("losing loads saw the released slot %d times (want %d) and a held one %d times", neutral, n-k, held)
	}

	for _, opt := range []engine.Options{
		{PrefixFrac: 1, Grain: 1},
		{PrefixSize: 64, Grain: 1},
		{Adaptive: true, PrefixSize: 16, Grain: 1},
	} {
		check(fmt.Sprintf("opts %+v", opt), newResidueProblem(n, k, order), opt)
	}
}

// chainProblem resolves item v only after item v-1 has resolved, and
// leaves outcome slots UNTOUCHED to mean retry — the Problem style that
// depends on the engine re-zeroing its pooled outcome buffer every
// round. A stale nonzero value would silently drop a retried iterate.
// order maps the engine's ranks to items.
type chainProblem struct {
	order     []int32
	done      []int32
	committed atomic.Int64
}

func (p *chainProblem) Check(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		v := p.order[act[i]]
		if v == 0 || atomic.LoadInt32(&p.done[v-1]) == 1 {
			outcome[i] = engine.Committed
		}
	}
	return int64(hi - lo)
}

func (p *chainProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		if outcome[i] == engine.Committed {
			atomic.StoreInt32(&p.done[p.order[act[i]]], 1)
			p.committed.Add(1)
		}
	}
	return 0
}

// Reusing one Workspace across runs must not leak the previous run's
// outcomes into the next: the second run here retries most iterates
// many times (reverse order = one resolution per round at the chain
// head), so any stale Committed slot from run one would break it.
func TestWorkspaceReuseRezeroesOutcomes(t *testing.T) {
	const n = 300
	ws := new(engine.Workspace)
	run := func(order []int32, opt engine.Options) *chainProblem {
		p := &chainProblem{order: order, done: make([]int32, n)}
		if _, err := engine.Run(context.Background(), n, p, opt, ws); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Run 1 resolves everything in one round (identity order, full
	// window), leaving the pooled outcome buffer all-Committed.
	first := run(rng.Identity(n), engine.Options{PrefixFrac: 1})
	if got := first.committed.Load(); got != n {
		t.Fatalf("run 1 committed %d of %d", got, n)
	}
	// Run 2 starts from the tail of the chain: every iterate except the
	// head must stay Undecided for many rounds.
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(n - 1 - i)
	}
	second := run(rev, engine.Options{PrefixFrac: 1})
	if got := second.committed.Load(); got != n {
		t.Fatalf("run 2 committed %d of %d (stale pooled outcomes?)", got, n)
	}
	for v, d := range second.done {
		if d != 1 {
			t.Fatalf("run 2 left item %d unresolved", v)
		}
	}
}

// The per-round observer sees a consistent view: attempted sums to
// Stats.Attempts, resolved sums to n, prefix never exceeds the final
// Stats.PrefixSize, and rounds arrive in order.
func TestOnRoundStatsConsistent(t *testing.T) {
	const n, k = 2000, 17
	order := rng.Perm(n, 3)
	p := newResidueProblem(n, k, order)
	var attempted, resolved, inspections int64
	lastRound := int64(0)
	maxPrefix := 0
	stats, err := engine.Run(context.Background(), n, p, engine.Options{Adaptive: true, OnRound: func(rs engine.RoundStat) {
		if rs.Round != lastRound+1 {
			t.Fatalf("round %d after %d", rs.Round, lastRound)
		}
		lastRound = rs.Round
		attempted += int64(rs.Attempted)
		resolved += int64(rs.Accepted)
		inspections += rs.EdgeInspections
		if rs.PrefixSize > maxPrefix {
			maxPrefix = rs.PrefixSize
		}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastRound != stats.Rounds {
		t.Fatalf("observer saw %d rounds, stats %d", lastRound, stats.Rounds)
	}
	if attempted != stats.Attempts {
		t.Fatalf("observer attempted %d, stats %d", attempted, stats.Attempts)
	}
	if resolved != n {
		t.Fatalf("observer resolved %d, want %d", resolved, n)
	}
	if inspections != stats.EdgeInspections {
		t.Fatalf("observer inspections %d, stats %d", inspections, stats.EdgeInspections)
	}
	if maxPrefix > stats.PrefixSize {
		t.Fatalf("observer max prefix %d exceeds stats %d", maxPrefix, stats.PrefixSize)
	}
}

// Cancellation aborts between rounds with ctx.Err().
func TestRunCancel(t *testing.T) {
	const n = 1000
	order := rng.Perm(n, 1)
	p := newResidueProblem(n, 7, order)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.Run(ctx, n, p, engine.Options{}, nil); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// PrefixFor / AdaptiveInitial / CeilFrac edge cases.
func TestWindowResolution(t *testing.T) {
	cases := []struct {
		opt  engine.Options
		n    int
		want int
	}{
		{engine.Options{PrefixSize: 10}, 100, 10},
		{engine.Options{PrefixSize: 10}, 5, 5},     // clamp to n
		{engine.Options{PrefixFrac: 0.5}, 10, 5},   // ceil(0.5*10)
		{engine.Options{PrefixFrac: 0.001}, 10, 1}, // floor at 1
		{engine.Options{}, 1000, engine.CeilFrac(engine.DefaultPrefixFrac, 1000)},
		{engine.Options{PrefixSize: 3, PrefixFrac: 0.9}, 100, 3}, // size wins
	}
	for _, c := range cases {
		if got := c.opt.PrefixFor(c.n); got != c.want {
			t.Errorf("PrefixFor(%+v, %d) = %d, want %d", c.opt, c.n, got, c.want)
		}
	}
	if got := (engine.Options{}).AdaptiveInitial(1 << 20); got != engine.AdaptiveStartWindow {
		t.Errorf("AdaptiveInitial default = %d, want %d", got, engine.AdaptiveStartWindow)
	}
	if got := (engine.Options{}).AdaptiveInitial(10); got != 10 {
		t.Errorf("AdaptiveInitial clamp = %d, want 10", got)
	}
	if got := (engine.Options{PrefixSize: 64}).AdaptiveInitial(1 << 20); got != 64 {
		t.Errorf("AdaptiveInitial explicit = %d, want 64", got)
	}
}

// TestCeilFracExactness pins the rounding fix: binary-float products a
// hair above an integer (the decimal 0.005 is not exactly
// representable) must not push the ceiling one past the documented
// value, while genuinely fractional products must round up.
func TestCeilFracExactness(t *testing.T) {
	// 0.005·n is an integer in decimal for every multiple of 200; the
	// float product oscillates a few ulps around it. The documented
	// value is exactly n/200.
	for n := 200; n <= 200_000; n += 200 {
		if got := engine.CeilFrac(0.005, n); got != n/200 {
			t.Fatalf("CeilFrac(0.005, %d) = %d, want %d", n, got, n/200)
		}
	}
	// Same for 0.1·n over multiples of 10 (0.1 is the classic
	// non-representable decimal).
	for n := 10; n <= 100_000; n += 10 {
		if got := engine.CeilFrac(0.1, n); got != n/10 {
			t.Fatalf("CeilFrac(0.1, %d) = %d, want %d", n, got, n/10)
		}
	}
	// Non-integer products take the ceiling.
	if got := engine.CeilFrac(0.07, 100); got != 7 {
		t.Errorf("CeilFrac(0.07, 100) = %d, want 7", got)
	}
	if got := engine.CeilFrac(0.0051, 1000); got != 6 {
		t.Errorf("CeilFrac(0.0051, 1000) = %d, want ⌈5.1⌉ = 6", got)
	}
	// Range edges.
	if got := engine.CeilFrac(0, 100); got != 0 {
		t.Errorf("CeilFrac(0, 100) = %d, want 0", got)
	}
	if got := engine.CeilFrac(-0.5, 100); got != 0 {
		t.Errorf("CeilFrac(-0.5, 100) = %d, want 0", got)
	}
	if got := engine.CeilFrac(1, 100); got != 100 {
		t.Errorf("CeilFrac(1, 100) = %d, want 100", got)
	}
	if got := engine.CeilFrac(7.5, 100); got != 100 {
		t.Errorf("CeilFrac(7.5, 100) = %d, want 100 (frac > 1 clamps)", got)
	}
	if got := engine.CeilFrac(0.5, 0); got != 0 {
		t.Errorf("CeilFrac(0.5, 0) = %d, want 0", got)
	}
}

// An empty order resolves immediately with zero rounds.
func TestRunEmpty(t *testing.T) {
	p := newResidueProblem(0, 1, nil)
	stats, err := engine.Run(context.Background(), 0, p, engine.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Attempts != 0 {
		t.Fatalf("empty run produced stats %+v", stats)
	}
}

// cancelDecider records the ranks Scan decides, in order, and cancels
// its context when it decides rank at.
type cancelDecider struct {
	at      int32
	cancel  context.CancelFunc
	decided []int32
}

func (d *cancelDecider) Decide(r int32) int64 {
	d.decided = append(d.decided, r)
	if r == d.at {
		d.cancel()
	}
	return int64(r % 3)
}

// Scan decides every rank once, in rank order, and reports the
// sequential counters: Rounds = Attempts = n, no window, and the sum
// of the decisions' inspections.
func TestScanDecidesInRankOrder(t *testing.T) {
	const n = 10_000
	d := &cancelDecider{at: -1}
	stats, err := engine.Scan(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.decided) != n {
		t.Fatalf("decided %d ranks, want %d", len(d.decided), n)
	}
	var want int64
	for r := int32(0); r < n; r++ {
		if d.decided[r] != r {
			t.Fatalf("decision %d was rank %d", r, d.decided[r])
		}
		want += int64(r % 3)
	}
	if got := (engine.Stats{Rounds: n, Attempts: n, EdgeInspections: want}); stats != got {
		t.Fatalf("stats %+v, want %+v", stats, got)
	}
	if stats, err := engine.Scan(context.Background(), 0, d); err != nil || stats != (engine.Stats{}) {
		t.Fatalf("empty scan: %+v, %v", stats, err)
	}
}

// A cancellation lands within 4,096 ranks: Scan returns ctx.Err()
// having decided at most 4,096 ranks past the one that cancelled, for
// cancellations at, just before and just after a check.
func TestScanCancel(t *testing.T) {
	const n = 100_000
	for _, at := range []int32{0, 1, 4095, 4096, 4097, 50_000} {
		ctx, cancel := context.WithCancel(context.Background())
		d := &cancelDecider{at: at, cancel: cancel}
		_, err := engine.Scan(ctx, n, d)
		cancel()
		if err != context.Canceled {
			t.Fatalf("cancel at %d: want context.Canceled, got %v", at, err)
		}
		last := d.decided[len(d.decided)-1]
		if last < at || last-at >= 4096 {
			t.Fatalf("cancel at rank %d: scan went on to rank %d", at, last)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &cancelDecider{at: -1}
	if _, err := engine.Scan(ctx, n, d); err != context.Canceled || len(d.decided) != 0 {
		t.Fatalf("pre-cancelled scan: %v after %d decisions", err, len(d.decided))
	}
}

// pathStepper is a toy Stepper on paths disjoint paths of length
// n/paths, interleaved by rank: rank r is at position r/paths of its
// path, and its successor is r+paths. The first rank of each path is a
// root; accepting r kills r+paths and exposing that finds r+2·paths
// ready, so step s accepts every path's position 2s. Each Expose
// defers its rank, and Settle checks that every Expose of the step has
// returned before it records the rank as settled.
type pathStepper struct {
	n, paths  int32
	round     int32   // the step under way, advanced by OnRound
	accepted  []int32 // rank -> step that accepted it, or -1
	settled   []int32 // rank -> step that settled it, or -1
	kills     atomic.Int64
	exposes   atomic.Int64
	misplaced atomic.Int64 // calls that saw a step other than round
}

func newPathStepper(n, paths int32) *pathStepper {
	p := &pathStepper{n: n, paths: paths, accepted: make([]int32, n), settled: make([]int32, n)}
	for r := range p.accepted {
		p.accepted[r], p.settled[r] = -1, -1
	}
	return p
}

func (p *pathStepper) Root(r int32) bool { return r < p.paths }

func (p *pathStepper) Accept(r int32, killed []int32) ([]int32, int64) {
	p.accepted[r] = p.round
	if k := r + p.paths; k < p.n {
		killed = append(killed, k)
		p.kills.Add(1)
	}
	return killed, 1
}

func (p *pathStepper) Expose(k, step int32, found, deferred []int32) ([]int32, []int32, int64) {
	if step != p.round {
		p.misplaced.Add(1)
	}
	if next := k + p.paths; next < p.n {
		found = append(found, next)
	}
	p.exposes.Add(1)
	return found, append(deferred, k), 2
}

func (p *pathStepper) Settle(deferred []int32) {
	if p.exposes.Load() != p.kills.Load() {
		p.misplaced.Add(1)
	}
	for _, k := range deferred {
		if p.settled[k] != -1 {
			p.misplaced.Add(1)
		}
		p.settled[k] = p.round
	}
}

// Steps accepts each path's position 2s at step s and kills position
// 2s+1; OnRound fires once per step with counters that sum to the
// run's; Settle runs after every Expose of its step and settles each
// deferred write once. One workspace serves two processors and then
// one, where a single chunk spans every frontier, and the runs agree:
// the paths have even length, so the first run's last step leaves
// killed and deferred lists in slots the second must not read.
func TestStepsOnPaths(t *testing.T) {
	const paths, length = 1000, 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ws := new(engine.Workspace)
	var first engine.Stats
	for _, procs := range []int{2, 1} {
		runtime.GOMAXPROCS(procs)
		p := newPathStepper(paths*length, paths)
		var calls, attempted, accepted int64
		var inspections int64
		opt := engine.Options{Grain: 16, OnRound: func(rs engine.RoundStat) {
			calls++
			if rs.Round != calls {
				t.Errorf("GOMAXPROCS=%d: callback %d reports round %d", procs, calls, rs.Round)
			}
			attempted += int64(rs.Attempted)
			accepted += int64(rs.Accepted)
			inspections += rs.EdgeInspections
			p.round++
		}}
		stats, err := engine.Steps(context.Background(), paths*length, p, opt, ws)
		if err != nil {
			t.Fatal(err)
		}
		steps, kills := int64(length+1)/2, int64(length/2)
		want := engine.Stats{Rounds: steps, Attempts: paths * steps, EdgeInspections: paths*steps + 2*paths*kills}
		if stats != want {
			t.Fatalf("GOMAXPROCS=%d: stats %+v, want %+v", procs, stats, want)
		}
		if calls != stats.Rounds || attempted != stats.Attempts || accepted != paths*length || inspections != stats.EdgeInspections {
			t.Fatalf("GOMAXPROCS=%d: %d callbacks attempted %d, accepted %d, inspected %d; stats %+v",
				procs, calls, attempted, accepted, inspections, stats)
		}
		if m := p.misplaced.Load(); m != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d Expose or Settle calls out of their step", procs, m)
		}
		for r := int32(0); r < paths*length; r++ {
			pos := r / paths
			acc, set := int32(-1), pos/2
			if pos%2 == 0 {
				acc, set = pos/2, -1
			}
			if p.accepted[r] != acc || p.settled[r] != set {
				t.Fatalf("GOMAXPROCS=%d: rank %d (position %d) accepted at step %d, settled at %d; want %d, %d",
					procs, r, pos, p.accepted[r], p.settled[r], acc, set)
			}
		}
		if procs == 2 {
			first = stats
		} else if stats != first {
			t.Fatalf("GOMAXPROCS=1 on a reused workspace: %+v, GOMAXPROCS=2: %+v", stats, first)
		}
	}
}

// A context cancelled before the call returns context.Canceled having
// accepted nothing, and n = 0 returns zero Stats.
func TestStepsCancelAndEmpty(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := newPathStepper(1000, 10)
	if _, err := engine.Steps(ctx, 1000, p, engine.Options{}, new(engine.Workspace)); err != context.Canceled {
		t.Fatalf("pre-cancelled run: want context.Canceled, got %v", err)
	}
	for r, step := range p.accepted {
		if step != -1 {
			t.Fatalf("pre-cancelled run accepted rank %d", r)
		}
	}
	stats, err := engine.Steps(context.Background(), 0, newPathStepper(0, 1), engine.Options{}, new(engine.Workspace))
	if err != nil || stats != (engine.Stats{}) {
		t.Fatalf("empty run: %+v, %v", stats, err)
	}
}
