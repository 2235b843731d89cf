package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
)

// truesReference is the plain branchy pack Trues replaces.
func truesReference(in []bool) []int32 {
	ids := []int32{}
	for i, x := range in {
		if x {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// packCases are the inputs the packers are checked on: the empty and
// one-item inputs, none and every item set, only the first or the last
// item set, and 2.6M items with 9% (MM's share) and 20% set.
func packCases() map[string][]bool {
	cases := map[string][]bool{
		"len0":       {},
		"len1 unset": {false},
		"len1 set":   {true},
	}
	for _, n := range []int{2, 5, 1000} {
		none, all, first, last := make([]bool, n), make([]bool, n), make([]bool, n), make([]bool, n)
		for i := range all {
			all[i] = true
		}
		first[0], last[n-1] = true, true
		cases[fmt.Sprintf("n=%d none", n)] = none
		cases[fmt.Sprintf("n=%d all", n)] = all
		cases[fmt.Sprintf("n=%d first only", n)] = first
		cases[fmt.Sprintf("n=%d last only", n)] = last
	}
	const m = 2_621_440
	for _, pct := range []uint64{9, 20} {
		in := make([]bool, m)
		for i := range in {
			in[i] = rng.Hash3(7, uint64(i), pct)%100 < pct
		}
		cases[fmt.Sprintf("n=%d %d%% set", m, pct)] = in
	}
	return cases
}

func TestTruesMatchesReference(t *testing.T) {
	for name, in := range packCases() {
		got := engine.Trues(in)
		if want := truesReference(in); !slices.Equal(got, want) {
			t.Fatalf("%s: Trues differs from the reference (%d ids, want %d)", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: Trues has length %d and capacity %d", name, len(got), cap(got))
		}
	}
}

// Members must scatter the Committed statuses through the order (or
// keep them in place without one) and pack them like Trues.
func TestMembersMatchesReference(t *testing.T) {
	for name, in := range packCases() {
		n := len(in)
		status := make([]int32, n)
		for i, x := range in {
			status[i] = engine.Dropped
			if x {
				status[i] = engine.Committed
			}
		}
		order := rng.Perm(n, 3)
		for _, ord := range [][]int32{nil, order} {
			wantIn := make([]bool, n)
			for r, st := range status {
				id := r
				if ord != nil {
					id = int(ord[r])
				}
				wantIn[id] = st == engine.Committed
			}
			gotIn, ids := engine.Members(status, ord)
			if !slices.Equal(gotIn, wantIn) {
				t.Fatalf("%s, order %v: membership bits differ from the reference", name, ord != nil)
			}
			if !slices.Equal(ids, truesReference(wantIn)) {
				t.Fatalf("%s, order %v: ids differ from the reference", name, ord != nil)
			}
			if cap(ids) != len(ids) || cap(gotIn) != n {
				t.Fatalf("%s, order %v: capacities %d and %d, want %d and %d", name, ord != nil, cap(ids), cap(gotIn), len(ids), n)
			}
		}
	}
}

// slotProblem is residueProblem with per-slot state: it records the
// bound Run hands SizeWindow and checks every slot index a phase sees
// against it.
type slotProblem struct {
	*residueProblem
	bound, calls int
	over         atomic.Int64
}

func (p *slotProblem) SizeWindow(bound int) { p.bound, p.calls = bound, p.calls+1 }

func (p *slotProblem) Check(act, outcome []int32, lo, hi int) int64 {
	if hi > p.bound {
		p.over.Add(1)
	}
	return p.residueProblem.Check(act, outcome, lo, hi)
}

func (p *slotProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	if hi > p.bound {
		p.over.Add(1)
	}
	return p.residueProblem.Commit(act, outcome, lo, hi)
}

// Run sizes a WindowSizer once, before the first round, to a bound no
// window of the run exceeds: the fixed window, or under adaptive
// scheduling the larger of the initial window and the growth cap, at
// one and two processors.
func TestRunSizesWindowOnce(t *testing.T) {
	const n, k = 20_000, 3
	order := rng.Perm(n, 5)
	want := sequentialResidue(n, k, order)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		growCap := engine.AdaptiveGrowCap(n)
		for _, c := range []struct {
			opt   engine.Options
			bound int
		}{
			{engine.Options{PrefixSize: 7, Grain: 3}, 7},
			{engine.Options{PrefixFrac: 1}, n},
			{engine.Options{Adaptive: true, Grain: 64}, growCap},
			{engine.Options{Adaptive: true, PrefixSize: 1}, growCap},
			{engine.Options{Adaptive: true, PrefixSize: growCap + 100}, growCap + 100},
		} {
			var ws engine.Workspace
			p := &slotProblem{residueProblem: newResidueProblem(n, k, order)}
			maxWindow := 0
			c.opt.OnRound = func(rs engine.RoundStat) { maxWindow = max(maxWindow, rs.PrefixSize) }
			if _, err := engine.Run(context.Background(), n, p, c.opt, &ws); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("procs=%d %+v", procs, c.opt)
			if p.calls != 1 || p.bound != c.bound {
				t.Fatalf("%s: SizeWindow called %d times with %d, want once with %d", name, p.calls, p.bound, c.bound)
			}
			if p.over.Load() != 0 || maxWindow > p.bound {
				t.Fatalf("%s: a round reached slot %d past the bound %d", name, maxWindow, p.bound)
			}
			if !slices.Equal(p.result, want) {
				t.Fatalf("%s: result differs from the sequential oracle", name)
			}
		}
	}
}
