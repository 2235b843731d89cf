package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the rest of the test if it
// is lower, so the team's helpers run on a one-processor leg too.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// waitFor polls cond until it holds or 10 s pass, and reports whether
// it held.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// Back-to-back fork-joins on one team, at grains 1–3: every index is
// covered exactly once by every call, each chunk is grain-aligned, and
// the plain writes of the bodies are visible to the caller when the
// call returns (the race detector checks the happens-before edge).
func TestTeamBackToBack(t *testing.T) {
	atLeastTwoProcs(t)
	team := NewTeam()
	defer team.Close()
	const calls, maxN = 10_000, 40
	hits := make([]int32, maxN)
	for c := 0; c < calls; c++ {
		n, grain := 1+c%maxN, 1+c%3
		var misshapen atomic.Int32
		team.ForRange(n, grain, func(lo, hi int) {
			if !(lo == 0 && hi == n) && (lo%grain != 0 || hi != min(lo+grain, n)) {
				misshapen.Add(1)
			}
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		if misshapen.Load() != 0 {
			t.Fatalf("call %d (n=%d, grain=%d): a chunk was not grain-aligned", c, n, grain)
		}
		for i := 0; i < n; i++ {
			if hits[i] != 1 {
				t.Fatalf("call %d (n=%d, grain=%d): index %d covered %d times", c, n, grain, i, hits[i])
			}
			hits[i] = 0
		}
	}
}

// A caller that runs out of chunks while a helper is still in a slow
// one blocks after waitPolls polls, and the helper that leaves wakes
// it. Each call's first chunk waits until the second has started on
// the other goroutine, and the second sleeps far longer than the polls
// take, so whenever the caller ran the first chunk it had to block. A
// lost wakeup hangs the test; the chunks' plain writes let the race
// detector check that the blocked caller still sees them.
func TestTeamCallerBlocksOnSlowChunk(t *testing.T) {
	atLeastTwoProcs(t)
	team := NewTeam()
	defer team.Close()
	for c := 0; c < 50; c++ {
		var started atomic.Int32
		var ran [2]bool
		team.ForRange(2, 1, func(lo, hi int) {
			if started.Add(1) == 1 {
				waitFor(func() bool { return started.Load() == 2 })
			} else {
				time.Sleep(2 * time.Millisecond)
			}
			ran[lo] = true
		})
		if !ran[0] || !ran[1] {
			t.Fatalf("call %d returned before both chunks ran: %v", c, ran)
		}
	}
}

// A fork-join opened after every helper has parked wakes them: its two
// chunks each wait for the other to start, so it completes only if a
// helper runs one of them while the caller runs the other.
func TestTeamWakesParkedHelpers(t *testing.T) {
	atLeastTwoProcs(t)
	team := NewTeam()
	defer team.Close()
	team.ForRange(2, 1, func(lo, hi int) {})
	if !waitFor(func() bool { return team.sleepers.Load() == int32(team.helpers) }) {
		t.Fatalf("%d of %d helpers parked", team.sleepers.Load(), team.helpers)
	}
	var started, alone atomic.Int32
	team.ForRange(2, 1, func(lo, hi int) {
		started.Add(1)
		if !waitFor(func() bool { return started.Load() == 2 }) {
			alone.Add(1)
		}
	})
	if alone.Load() != 0 {
		t.Fatal("no parked helper woke to run the second chunk")
	}
}

// Close joins the helpers, and the one-shot ForRange leaves none
// behind either.
func TestTeamCloseJoinsHelpers(t *testing.T) {
	atLeastTwoProcs(t)
	// Helpers of earlier tests' loops may still be on their way out.
	base := runtime.NumGoroutine()
	waitFor(func() bool {
		time.Sleep(5 * time.Millisecond)
		prev := base
		base = runtime.NumGoroutine()
		return base == prev
	})
	team := NewTeam()
	team.ForRange(1<<12, 1, func(lo, hi int) {})
	if got := runtime.NumGoroutine(); got != base+team.procs-1 {
		t.Fatalf("%d goroutines with the team running, want %d + %d helpers", got, base, team.procs-1)
	}
	team.Close()
	if !waitFor(func() bool { return runtime.NumGoroutine() == base }) {
		t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), base)
	}
	ForRange(1<<12, 1, func(lo, hi int) {})
	if !waitFor(func() bool { return runtime.NumGoroutine() == base }) {
		t.Fatalf("%d goroutines after a one-shot ForRange, want %d", runtime.NumGoroutine(), base)
	}
}

// A team starts helpers only for a fork-join of more than one chunk:
// never at GOMAXPROCS=1, and not for a loop within one grain.
func TestTeamStartsOnlyWhenChunked(t *testing.T) {
	for _, procs := range []int{1, 2} {
		old := runtime.GOMAXPROCS(procs)
		team := NewTeam()
		n, grain := 100_000, 1
		if procs > 1 {
			n, grain = 256, 256
		}
		calls := 0
		team.ForRange(n, grain, func(lo, hi int) {
			calls++
			if lo != 0 || hi != n {
				t.Errorf("GOMAXPROCS=%d: chunk [%d, %d), want the whole range [0, %d)", procs, lo, hi, n)
			}
		})
		if calls != 1 || team.helpers != 0 {
			t.Errorf("GOMAXPROCS=%d, n=%d, grain=%d: %d body calls, %d helpers started; want one call on the caller", procs, n, grain, calls, team.helpers)
		}
		team.Close()
		runtime.GOMAXPROCS(old)
	}
}
