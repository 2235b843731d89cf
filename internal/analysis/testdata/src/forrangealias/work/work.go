// Package work is a forrangealias fixture: function literals handed to
// the fork-join primitives must not write captured state without an
// index or an atomic.
package work

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// SumRace accumulates into a captured variable from concurrent chunks.
func SumRace(xs []int64) int64 {
	var total int64
	parallel.ForRange(len(xs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i] // want `writes captured variable total`
		}
	})
	return total
}

// SumAtomic shares the scalar the sanctioned way.
func SumAtomic(xs []int64) int64 {
	var total int64
	parallel.ForRange(len(xs), 0, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += xs[i]
		}
		atomic.AddInt64(&total, local)
	})
	return total
}

// Fill writes disjoint elements: the deterministic-parallelism idiom.
func Fill(out []int32) {
	parallel.For(len(out), 0, func(i int) {
		out[i] = int32(i)
	})
}

// CountRace increments a captured counter per item.
func CountRace(xs []int) int {
	n := 0
	parallel.For(len(xs), 0, func(i int) {
		if xs[i] > 0 {
			n++ // want `increments captured variable n`
		}
	})
	return n
}

// CountLocked serializes with a mutex: exempt.
func CountLocked(xs []int) int {
	n := 0
	var mu sync.Mutex
	parallel.For(len(xs), 0, func(i int) {
		if xs[i] > 0 {
			mu.Lock()
			n++
			mu.Unlock()
		}
	})
	return n
}

// StructRace writes a field of captured shared state.
type stats struct{ attempts int64 }

func StructRace(xs []int, s *stats) {
	parallel.For(len(xs), 0, func(i int) {
		s.attempts = int64(i) // want `writes captured variable s`
	})
}

// AliasRace smuggles a pointer to captured state into the body.
func AliasRace(xs []int64) {
	var t int64
	parallel.ForRange(len(xs), 0, func(lo, hi int) {
		p := &t // want `takes the address of captured variable t`
		_ = p
	})
}

// AliasAtomic feeds the address straight to an atomic: sanctioned.
func AliasAtomic(xs []int64) int64 {
	var t int64
	parallel.ForRange(len(xs), 0, func(lo, hi int) {
		atomic.AddInt64(&t, int64(hi-lo))
	})
	return t
}

// WriteMinOK feeds a captured element address to the parallel package's
// own atomic helper.
func WriteMinOK(vals []int32) {
	parallel.For(len(vals), 0, func(i int) {
		parallel.WriteMin32(&vals[0], vals[i]) // indexed: fine
	})
}

// ReduceLeafRace writes captured state from the concurrent leaf.
func ReduceLeafRace(xs []int64) int64 {
	var seen int64
	return parallel.Reduce(len(xs), 0, int64(0), func(lo, hi int) int64 {
		seen++ // want `increments captured variable seen`
		var s int64
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	}, func(a, b int64) int64 { return a + b })
}

// ReduceCombineOK: combine runs sequentially after the join, so a
// captured write there is not a race.
func ReduceCombineOK(xs []int64) int64 {
	combines := 0
	r := parallel.Reduce(len(xs), 0, int64(0), func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	}, func(a, b int64) int64 {
		combines++
		return a + b
	})
	_ = combines
	return r
}

// DoDisjoint writes one result variable per thunk: the fork-join
// result-passing idiom.
func DoDisjoint(a, b []int64) (int64, int64) {
	var sa, sb int64
	parallel.Do(
		func() { sa = seqSum(a) },
		func() { sb = seqSum(b) },
	)
	return sa, sb
}

// DoRace writes the same variable from two thunks.
func DoRace(a, b []int64) int64 {
	var s int64
	parallel.Do(
		func() { s = seqSum(a) },
		func() { s += seqSum(b) }, // want `written by 2 thunks`
	)
	return s
}

func seqSum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// BlockTallyRace counts into a captured scalar from concurrent blocks.
func BlockTallyRace(xs []int64) int {
	kept := 0
	parallel.ForBlocks(len(xs), 64, func(b, lo, hi int) {
		for i := lo; i < hi; i++ {
			if xs[i] > 0 {
				kept++ // want `increments captured variable kept`
			}
		}
	})
	return kept
}

// BlockLastRace records the last block seen in a captured scalar.
func BlockLastRace(xs []int64) int {
	last := -1
	parallel.ForBlocks(len(xs), 64, func(b, lo, hi int) {
		last = b // want `writes captured variable last`
	})
	return last
}

// BlockSlots writes each block's tally to its own slot and compacts
// after the join: the per-block idiom.
func BlockSlots(xs []int64) []int64 {
	const block = 64
	kept := make([]int, (len(xs)+block-1)/block)
	parallel.ForBlocks(len(xs), block, func(b, lo, hi int) {
		w := lo
		for i := lo; i < hi; i++ {
			if xs[i] > 0 {
				xs[w] = xs[i]
				w++
			}
		}
		kept[b] = w - lo
	})
	w := 0
	for b, k := range kept {
		w += copy(xs[w:], xs[b*block:b*block+k])
	}
	return xs[:w]
}
