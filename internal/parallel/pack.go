package parallel

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
