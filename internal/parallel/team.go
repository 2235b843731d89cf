package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinPolls is how many times an idle helper polls for the next
// fork-join before it parks. It covers the sequential gap between two
// fork-joins of a round loop (a merge, a context check, an observer
// call: microseconds), so a helper is on hand when the next one opens,
// while a helper left idle for longer gives its processor back.
// waitPolls is how many times the caller polls for its helpers to
// finish before it blocks: long enough for a helper to finish an
// ordinary chunk, so only a helper whose thread lost its processor in
// the middle of a chunk makes the caller block. Every yieldEvery polls
// a helper or the caller also yields, so polling never keeps a
// runnable goroutine off its processor.
const (
	spinPolls  = 1 << 13
	waitPolls  = 1 << 14
	yieldEvery = 64
)

// A Team runs successive fork-joins on resident helper goroutines. It
// has up to p−1 helpers, p being GOMAXPROCS when the team is made, and
// starts them on its first fork-join of more than one chunk — no more
// than that fork-join has chunks to share, and more later only if a
// wider fork-join comes. In every fork-join the helpers claim
// grain-aligned chunks alongside the calling goroutine; between
// fork-joins they spin for a bounded number of polls and then park,
// and Close joins them. A round loop that makes two fork-joins per
// round thus pays one goroutine start per helper for the whole loop
// instead of p per fork-join, and the caller runs chunks instead of
// only waiting. A caller left waiting for a helper's chunk polls a
// bounded number of times too and then blocks, so on a machine shared
// with other work a helper descheduled mid-chunk costs the caller a
// wake-up, not a processor spinning until the helper runs again.
//
// A Team is driven by one goroutine: ForRange and Close must not be
// called concurrently.
type Team struct {
	procs   int
	helpers int

	// seq numbers the fork-joins: odd while one is open to joining
	// helpers, even once it is closed. A helper announces itself in
	// inside before it re-reads seq, and the caller closes seq before
	// it waits for inside to drain, so a helper either joins the open
	// fork-join or sees it closed; it never reads the next one's
	// fields half-written.
	seq    atomic.Uint64
	inside atomic.Int32
	// next is the start of the first unclaimed chunk.
	next atomic.Int64

	// The open fork-join, written by the caller only while no helper
	// is inside.
	body  func(lo, hi int)
	n     int
	grain int

	quit     atomic.Bool
	sleepers atomic.Int32
	// live counts the helpers that have not returned.
	live atomic.Int32
	// waiting is set while the caller blocks in drain.
	waiting atomic.Bool
	mu      sync.Mutex
	wake    sync.Cond // parked helpers wait here for a fork-join
	idle    sync.Cond // the caller blocked in drain waits here
}

// NewTeam returns a team sized to the current GOMAXPROCS. It starts no
// goroutine until its first fork-join of more than one chunk, so a
// team whose loops all fit in one grain, or which runs at GOMAXPROCS=1,
// never starts any. Close it when the loop that uses it ends.
func NewTeam() *Team {
	t := &Team{procs: Procs()}
	t.wake.L = &t.mu
	t.idle.L = &t.mu
	return t
}

// ForRange runs body over [0, n) like the package-level ForRange. With
// one processor, or n <= grain, it calls body(0, n) on the calling
// goroutine. Otherwise chunk k is [k·grain, min((k+1)·grain, n)), so
// lo/grain indexes a per-chunk slot. The cut depends only on n, grain
// and the team, so two fork-joins of equal n and grain on one team cut
// [0, n) identically. If grain <= 0, DefaultGrain is used. The call
// returns after every chunk has completed, which establishes a
// happens-before edge from every body invocation to the caller.
func (t *Team) ForRange(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if t.procs == 1 || n <= grain {
		body(0, n)
		return
	}
	if h := min(t.procs, (n+grain-1)/grain) - 1; h > t.helpers {
		t.live.Add(int32(h - t.helpers))
		for ; t.helpers < h; t.helpers++ {
			go t.help()
		}
	}
	t.body, t.n, t.grain = body, n, grain
	t.next.Store(0)
	seq := t.seq.Add(1)
	if t.sleepers.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
	t.claim()
	t.seq.Store(seq + 1)
	t.drain(&t.inside)
}

// Close stops the helpers and waits until each has returned. The team
// must not be used afterwards.
func (t *Team) Close() {
	if t.helpers == 0 {
		return
	}
	t.helpers = 0
	t.quit.Store(true)
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
	t.drain(&t.live)
}

// drain returns once c, inside or live, is zero. It polls up to
// waitPolls times, which covers a helper finishing an ordinary chunk,
// and then blocks until the helper that brings c to zero signals, so
// a caller whose helper was descheduled in the middle of a chunk gives
// its processor up rather than spinning until the helper runs again.
func (t *Team) drain(c *atomic.Int32) {
	for polls := 1; c.Load() != 0; polls++ {
		if polls%yieldEvery == 0 {
			runtime.Gosched()
		}
		if polls < waitPolls {
			continue
		}
		t.mu.Lock()
		t.waiting.Store(true)
		for c.Load() != 0 {
			t.idle.Wait()
		}
		t.waiting.Store(false)
		t.mu.Unlock()
		return
	}
}

// leave decrements c, inside or live, and wakes the caller if it is
// blocked in drain and c reached zero. The caller sets waiting before
// its last look at c, and a helper looks at waiting after its
// decrement, so one of the two sees the other.
func (t *Team) leave(c *atomic.Int32) {
	if c.Add(-1) == 0 && t.waiting.Load() {
		t.mu.Lock()
		t.idle.Signal()
		t.mu.Unlock()
	}
}

// claim runs unclaimed chunks of the open fork-join until none is
// left. It is the package's one chunk-claiming loop.
func (t *Team) claim() {
	body, n, grain := t.body, t.n, t.grain
	for {
		lo := int(t.next.Add(int64(grain))) - grain
		if lo >= n {
			return
		}
		body(lo, min(lo+grain, n))
	}
}

// help is a helper's loop: wait for a fork-join newer than the last
// one it saw, join it if it is still open, and claim chunks.
func (t *Team) help() {
	defer t.leave(&t.live)
	var seen uint64
	for {
		seq, ok := t.await(seen)
		if !ok {
			return
		}
		seen = seq
		t.inside.Add(1)
		if t.seq.Load() == seq {
			t.claim()
		}
		t.leave(&t.inside)
	}
}

// await returns the number of an open fork-join other than seen,
// polling spinPolls times and then parking; ok is false once Close
// has been called. The caller wakes parked helpers when it opens a
// fork-join: a helper counts itself in sleepers before its last look
// at seq, and the caller looks at sleepers after it has opened seq, so
// one of the two sees the other.
func (t *Team) await(seen uint64) (seq uint64, ok bool) {
	ready := func() bool {
		seq = t.seq.Load()
		return seq != seen && seq&1 == 1
	}
	for polls := 1; polls <= spinPolls; polls++ {
		if ready() {
			return seq, true
		}
		if t.quit.Load() {
			return 0, false
		}
		if polls%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sleepers.Add(1)
	defer t.sleepers.Add(-1)
	for {
		if ready() {
			return seq, true
		}
		if t.quit.Load() {
			return 0, false
		}
		t.wake.Wait()
	}
}
