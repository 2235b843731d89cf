package engine

import "math"

// Pooled-buffer, membership and window-arithmetic helpers, the single
// source of truth the algorithm packages share (they used to carry
// per-package copies).

// Grow32 returns *buf resized to n int32s, reallocating only when the
// pooled capacity is insufficient. Contents are unspecified: callers
// must reinitialize the slice (Fill32 or full overwrite) before reads.
func Grow32(buf *[]int32, n int) []int32 {
	s := *buf
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	*buf = s
	return s
}

// Fill32 sets every element of s to v.
func Fill32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// Members maps a run's final statuses back to item ids: status[r] is
// the status of item order[r], or of item r when order is nil. It
// returns in, where in[id] reports whether item id was Committed, and
// the committed ids in increasing order. It is two plain loops that
// allocate those two slices, sized exactly, and nothing else: it runs
// after the last round, and on a small input a parallel loop's
// fork-join and per-item closure calls would cost more than the work.
func Members(status, order []int32) (in []bool, ids []int32) {
	in = make([]bool, len(status))
	size := 0
	for r, st := range status {
		id := r
		if order != nil {
			id = int(order[r])
		}
		x := st == Committed
		in[id] = x
		if x {
			size++
		}
	}
	ids = make([]int32, 0, size)
	for id, x := range in {
		if x {
			ids = append(ids, int32(id))
		}
	}
	return in, ids
}

// GrowActive returns an empty int32 slice with capacity at least n
// backed by *buf, for frontier/window arrays rebuilt by appends.
func GrowActive(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, 0, n)
	}
	return (*buf)[:0]
}

// DefaultPrefixFrac is the default prefix fraction, chosen near the
// running-time optimum the paper observes (prefix/input between 1e-3
// and 1e-2 on both inputs).
const DefaultPrefixFrac = 0.005

// CeilFrac returns ⌈frac·n⌉ with integer rounding semantics: a decimal
// fraction whose binary representation lands the product a hair above
// an integer (0.005·1000 = 5.000000000000001 in float64) still yields
// that integer, not one past it. The product is nudged down by one part
// in 10^12 — orders of magnitude above the representation error of any
// (frac, n) pair in range, orders of magnitude below one iterate —
// before the ceiling, so the result is the documented value on every
// platform instead of whatever int truncation of the raw product gives.
// frac ≥ 1 returns n; frac ≤ 0 or n ≤ 0 returns 0.
func CeilFrac(frac float64, n int) int {
	if n <= 0 || frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	return int(math.Ceil(frac * float64(n) * (1 - 1e-12)))
}
