package parallel

// Integer is the constraint satisfied by the integer types used for
// offsets and counters throughout the library.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// ExclusiveScan computes the exclusive prefix sum of src into dst and
// returns the total. dst[i] = src[0] + ... + src[i-1], dst[0] = 0.
// dst and src may be the same slice. len(dst) must be >= len(src).
//
// The implementation is the standard three-phase blocked scan: per-block
// sums, a sequential scan over the (few) block sums, and a parallel
// down-sweep adding block offsets. Work is O(n), depth is O(n/P + B)
// where B is the number of blocks.
func ExclusiveScan[T Integer](dst, src []T, grain int) T {
	n := len(src)
	if n == 0 {
		return 0
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if Procs() == 1 || n <= grain {
		var acc T
		for i := 0; i < n; i++ {
			v := src[i]
			dst[i] = acc
			acc += v
		}
		return acc
	}
	chunks := (n + grain - 1) / grain
	sums := make([]T, chunks)
	ForRange(n, grain, func(lo, hi int) {
		var s T
		for i := lo; i < hi; i++ {
			s += src[i]
		}
		sums[lo/grain] = s
	})
	var total T
	for c := 0; c < chunks; c++ {
		s := sums[c]
		sums[c] = total
		total += s
	}
	ForRange(n, grain, func(lo, hi int) {
		acc := sums[lo/grain]
		for i := lo; i < hi; i++ {
			v := src[i]
			dst[i] = acc
			acc += v
		}
	})
	return total
}
