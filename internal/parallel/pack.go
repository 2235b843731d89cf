package parallel

// PackInPlace compacts src in place, keeping elements whose index
// satisfies keep and preserving order, and returns the compacted prefix
// of src. It is the parallel "filter"/"pack" primitive the round loops
// use to compact the unresolved iterates between rounds (the paper's
// "densely pack into new arrays", Theorem 4.5): per-block counts, a
// sequential scan over them, and a parallel scatter. Work O(n), depth
// O(n/P + B).
func PackInPlace[T any](src []T, grain int, keep func(i int) bool) []T {
	n := len(src)
	if n == 0 {
		return src[:0]
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if Procs() == 1 || n <= grain {
		w := 0
		for i := 0; i < n; i++ {
			if keep(i) {
				src[w] = src[i]
				w++
			}
		}
		return src[:w]
	}
	chunks := (n + grain - 1) / grain
	counts := make([]int, chunks)
	ForRange(n, grain, func(lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		counts[lo/grain] = c
	})
	total := 0
	for c := 0; c < chunks; c++ {
		v := counts[c]
		counts[c] = total
		total += v
	}
	// Each chunk writes to [counts[c], counts[c]+kept) which lies at or
	// before its own range start, and chunk destinations are disjoint,
	// but a chunk's writes may target a region still being read by an
	// earlier-running chunk only if dest overlaps a *different* chunk's
	// source region. Because dest_c <= lo_c for every chunk and ranges
	// are processed write-forward, a two-pass copy via a scratch buffer
	// is required for full generality; we use scratch for safety.
	scratch := make([]T, total)
	ForRange(n, grain, func(lo, hi int) {
		pos := counts[lo/grain]
		for i := lo; i < hi; i++ {
			if keep(i) {
				scratch[pos] = src[i]
				pos++
			}
		}
	})
	copy(src, scratch)
	return src[:total]
}

// PackIndex returns, in increasing order, the indices i in [0, n) for
// which pred(i) is true.
func PackIndex(n, grain int, pred func(i int) bool) []int32 {
	if n == 0 {
		return nil
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if Procs() == 1 || n <= grain {
		out := make([]int32, 0, n/4+8)
		for i := 0; i < n; i++ {
			if pred(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chunks := (n + grain - 1) / grain
	counts := make([]int, chunks)
	ForRange(n, grain, func(lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		counts[lo/grain] = c
	})
	total := 0
	for c := 0; c < chunks; c++ {
		v := counts[c]
		counts[c] = total
		total += v
	}
	out := make([]int32, total)
	ForRange(n, grain, func(lo, hi int) {
		pos := counts[lo/grain]
		for i := lo; i < hi; i++ {
			if pred(i) {
				out[pos] = int32(i)
				pos++
			}
		}
	})
	return out
}
