package parallel

// SortUint64 sorts keys ascending with a parallel least-significant-
// digit radix sort (8-bit digits, blocked counting with a per-block
// offset matrix). It is the sort behind the graph generators, which
// dedup multi-million-entry edge-key arrays; radix beats comparison
// sorting by ~5x there and parallelizes the counting and scatter
// passes.
//
// The sort is stable and runs in 8 passes of O(n) work each. For small
// inputs it falls back to an insertion-free sequential radix with the
// same code path (blocks = 1).
func SortUint64(keys []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	const (
		radixBits = 8
		radix     = 1 << radixBits
		digits    = 64 / radixBits
	)
	buf := make([]uint64, n)
	src, dst := keys, buf

	// Block partitioning for the parallel counting/scatter passes.
	grain := 1 << 14
	blocks := (n + grain - 1) / grain
	counts := make([][radix]int64, blocks)

	for pass := 0; pass < digits; pass++ {
		shift := uint(pass * radixBits)

		// Skip passes whose digit is constant (common for small keys:
		// high bytes are all zero).
		if allSameDigit(src, shift) {
			continue
		}

		// Phase 1: per-block digit histograms. The whole offset matrix
		// must be re-zeroed every pass: when the counting loop degrades
		// to a single sequential chunk (GOMAXPROCS=1 or n <= grain)
		// only block 0 is visited, and blocks 1..blocks-1 would
		// otherwise carry stale scan offsets from the previous pass
		// into phase 2. The reset is itself parallel so it does not
		// become a serial fraction of the pass on many-core runs.
		ForRange(blocks, 16, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				counts[b] = [radix]int64{}
			}
		})
		ForRange(n, grain, func(lo, hi int) {
			b := lo / grain
			c := &counts[b]
			for i := lo; i < hi; i++ {
				c[(src[i]>>shift)&(radix-1)]++
			}
		})

		// Phase 2: column-major exclusive scan over (digit, block) so
		// that block b's digit d starts at the right global offset and
		// stability is preserved.
		var total int64
		for d := 0; d < radix; d++ {
			for b := 0; b < blocks; b++ {
				v := counts[b][d]
				counts[b][d] = total
				total += v
			}
		}

		// Phase 3: stable scatter.
		ForRange(n, grain, func(lo, hi int) {
			b := lo / grain
			c := &counts[b]
			for i := lo; i < hi; i++ {
				d := (src[i] >> shift) & (radix - 1)
				dst[c[d]] = src[i]
				c[d]++
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

func allSameDigit(keys []uint64, shift uint) bool {
	first := (keys[0] >> shift) & 0xff
	// Cheap sampled pre-check, then full check only if the sample
	// agrees (the common skip case must still be exact).
	step := len(keys)/64 + 1
	for i := 0; i < len(keys); i += step {
		if (keys[i]>>shift)&0xff != first {
			return false
		}
	}
	for _, k := range keys {
		if (k>>shift)&0xff != first {
			return false
		}
	}
	return true
}
