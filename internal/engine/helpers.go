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
// the committed ids in increasing order (Trues of in). Like Trues it is
// plain loops that allocate those two slices, sized exactly, and
// nothing else.
func Members(status, order []int32) (in []bool, ids []int32) {
	in = make([]bool, len(status))
	if order == nil {
		for r, st := range status {
			in[r] = st == Committed
		}
	} else {
		for r, st := range status {
			in[order[r]] = st == Committed
		}
	}
	return in, Trues(in)
}

// Trues returns the indices of the set items of in, in increasing
// order, in a slice whose capacity is its length. It runs after the
// last round, on the calling goroutine: on a small input a parallel
// loop's fork-join would cost more than the work, and on a large one
// two branch-free passes cost less than a data-dependent branch per
// item. The first pass counts; the second stores every index and
// advances past the set ones, and stops at the last set item, so its
// store never passes the end.
func Trues(in []bool) []int32 {
	size := 0
	for _, x := range in {
		size += b2i(x)
	}
	ids := make([]int32, size)
	for i, k := 0, 0; k < len(ids); i++ {
		ids[k] = int32(i)
		k += b2i(in[i])
	}
	return ids
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
