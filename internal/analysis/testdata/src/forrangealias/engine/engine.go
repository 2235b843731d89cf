// Package engine is a forrangealias fixture shaped like the shared
// speculative engine's two-phase round: the check and commit closures
// run over chunks of the active window concurrently, so captured
// scalars written without an index or an atomic are races.
package engine

import (
	"sync/atomic"

	"repro/internal/parallel"
)

// CheckRace tallies inspections into a captured counter from the
// concurrent check phase.
func CheckRace(active, outcome []int32) int64 {
	var inspected int64
	parallel.ForRange(len(active), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outcome[i] = active[i] % 2
			inspected++ // want `increments captured variable inspected`
		}
	})
	return inspected
}

// CheckAtomic drains per-chunk counts through an atomic: sanctioned.
func CheckAtomic(active, outcome []int32) int64 {
	var inspected int64
	parallel.ForRange(len(active), 0, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			outcome[i] = active[i] % 2
			local++
		}
		atomic.AddInt64(&inspected, local)
	})
	return inspected
}

// CommitAlias smuggles the address of a captured scalar into the
// commit phase.
func CommitAlias(outcome []int32) {
	var last int32
	parallel.ForRange(len(outcome), 0, func(lo, hi int) {
		p := &last // want `takes the address of captured variable last`
		for i := lo; i < hi; i++ {
			if outcome[i] != 0 {
				*p = outcome[i]
			}
		}
	})
}

// CommitDisjoint writes disjoint outcome slots: the engine's idiom.
func CommitDisjoint(state, outcome []int32) {
	parallel.ForRange(len(outcome), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if outcome[i] == 1 {
				state[i] = 1
			}
		}
	})
}

// TeamCheckRace tallies into a captured counter from a body handed
// inline to a team's fork-join.
func TeamCheckRace(active, outcome []int32) int64 {
	team := parallel.NewTeam()
	defer team.Close()
	var inspected int64
	team.ForRange(len(active), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outcome[i] = active[i] % 2
		}
		inspected += int64(hi - lo) // want `writes captured variable inspected`
	})
	return inspected
}

// TeamChunkSlots reports each chunk's count through its own slot,
// indexed by lo/grain: sanctioned.
func TeamChunkSlots(active []int32, counts []int64) {
	team := parallel.NewTeam()
	defer team.Close()
	team.ForRange(len(active), 4, func(lo, hi int) {
		counts[lo/4] = int64(hi - lo)
	})
}

// HoistedRace builds the round's body once, before the round loop, and
// increments a captured counter from it.
func HoistedRace(rounds int, active []int32) int {
	team := parallel.NewTeam()
	defer team.Close()
	kept := 0
	commit := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if active[i] != 0 {
				kept++ // want `increments captured variable kept`
			}
		}
	}
	for r := 0; r < rounds; r++ {
		team.ForRange(len(active), 0, commit)
	}
	return kept
}

// HoistedSlots compacts each chunk in place and reports what it kept
// through its own slot, the engine's fused pack: sanctioned.
func HoistedSlots(rounds int, active []int32, kept []int) {
	commit := func(lo, hi int) {
		w := lo
		for i := lo; i < hi; i++ {
			if active[i] != 0 {
				active[w] = active[i]
				w++
			}
		}
		kept[lo/parallel.DefaultGrain] = w - lo
	}
	for r := 0; r < rounds; r++ {
		parallel.ForRange(len(active), 0, commit)
	}
}
