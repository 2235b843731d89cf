package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForRangeCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 255, 256, 257, 1000, 100000} {
		for _, grain := range []int{0, 1, 7, 256, 100001} {
			hits := make([]int32, n)
			ForRange(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("ForRange(n=%d, grain=%d) bad range [%d,%d)", n, grain, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("ForRange(n=%d, grain=%d): index %d visited %d times", n, grain, i, h)
				}
			}
		}
	}
}

// TestForBlocksCutsFixedBlocks checks that ForBlocks visits every block
// exactly once with the bounds its index names, at one and two
// processors, whatever chunks ForRange hands it.
func TestForBlocksCutsFixedBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 6, 7, 8, 1000} {
			for _, block := range []int{1, 3, 7, 1024} {
				seen := make([]int32, (n+block-1)/block)
				ForBlocks(n, block, func(b, lo, hi int) {
					if lo != b*block || hi != min(lo+block, n) {
						t.Errorf("n=%d block=%d: block %d is [%d,%d)", n, block, b, lo, hi)
					}
					atomic.AddInt32(&seen[b], 1)
				})
				for b, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d block=%d procs=%d: block %d visited %d times", n, block, procs, b, c)
					}
				}
			}
		}
	}
}

func TestForCoversExactlyOnce(t *testing.T) {
	const n = 50000
	hits := make([]int32, n)
	For(n, 64, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("For: index %d visited %d times", i, h)
		}
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	For(0, 10, func(i int) { called = true })
	For(-5, 10, func(i int) { called = true })
	if called {
		t.Error("For called body for non-positive n")
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c int32
	Do(
		func() { atomic.AddInt32(&a, 1) },
		func() { atomic.AddInt32(&b, 1) },
		func() { atomic.AddInt32(&c, 1) },
	)
	if a != 1 || b != 1 || c != 1 {
		t.Errorf("Do did not run every function: %d %d %d", a, b, c)
	}
	Do() // must not panic
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Error("Do with one function did not run it")
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1000, 65537} {
		got := Reduce(n, 128, 0, func(lo, hi int) int {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		}, func(a, b int) int { return a + b })
		want := n * (n - 1) / 2
		if n <= 0 {
			want = 0
		}
		if got != want {
			t.Errorf("Reduce sum n=%d: got %d, want %d", n, got, want)
		}
	}
}

func TestReduceDeterministicOrderNonCommutative(t *testing.T) {
	// String concatenation is associative but not commutative; the result
	// must be identical across runs and equal to the sequential result.
	const n = 2000
	leaf := func(lo, hi int) string {
		s := ""
		for i := lo; i < hi; i++ {
			s += string(rune('a' + i%26))
		}
		return s
	}
	comb := func(a, b string) string { return a + b }
	want := leaf(0, n)
	for trial := 0; trial < 5; trial++ {
		if got := Reduce(n, 64, "", leaf, comb); got != want {
			t.Fatalf("Reduce non-commutative result differs from sequential on trial %d", trial)
		}
	}
}

func TestMaxInt64(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	got := MaxInt64(len(vals), 2, -1, func(i int) int64 { return vals[i] })
	if got != 9 {
		t.Errorf("MaxInt64 = %d, want 9", got)
	}
	if got := MaxInt64(0, 2, -7, nil); got != -7 {
		t.Errorf("MaxInt64 empty = %d, want identity -7", got)
	}
}

func seqExclusive(src []int64) ([]int64, int64) {
	dst := make([]int64, len(src))
	var acc int64
	for i, v := range src {
		dst[i] = acc
		acc += v
	}
	return dst, acc
}

func TestExclusiveScanMatchesSequentialQuick(t *testing.T) {
	f := func(raw []int16, grain uint8) bool {
		src := make([]int64, len(raw))
		for i, v := range raw {
			src[i] = int64(v)
		}
		want, wantTotal := seqExclusive(src)
		dst := make([]int64, len(src))
		total := ExclusiveScan(dst, src, int(grain%64))
		if total != wantTotal {
			return false
		}
		for i := range want {
			if dst[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExclusiveScanLarge(t *testing.T) {
	const n = 300000
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 7)
	}
	want, wantTotal := seqExclusive(src)
	dst := make([]int64, n)
	total := ExclusiveScan(dst, src, 128)
	if total != wantTotal {
		t.Fatalf("total = %d, want %d", total, wantTotal)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestExclusiveScanInPlace(t *testing.T) {
	src := []int64{1, 2, 3, 4, 5}
	total := ExclusiveScan(src, src, 2)
	want := []int64{0, 1, 3, 6, 10}
	if total != 15 {
		t.Errorf("total = %d, want 15", total)
	}
	for i := range want {
		if src[i] != want[i] {
			t.Errorf("in-place scan[%d] = %d, want %d", i, src[i], want[i])
		}
	}
}

func TestScanEmpty(t *testing.T) {
	if got := ExclusiveScan[int64](nil, nil, 0); got != 0 {
		t.Errorf("empty exclusive scan total = %d", got)
	}
}

func TestPackIndex(t *testing.T) {
	got := PackIndex(10, 3, func(i int) bool { return i%2 == 1 })
	want := []int32{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("PackIndex = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PackIndex = %v, want %v", got, want)
		}
	}
	if got := PackIndex(0, 1, nil); len(got) != 0 {
		t.Errorf("PackIndex(0) = %v", got)
	}
}

func TestWriteMin32(t *testing.T) {
	var x int32 = 100
	if !WriteMin32(&x, 50) {
		t.Error("WriteMin32(100->50) reported no write")
	}
	if x != 50 {
		t.Errorf("x = %d, want 50", x)
	}
	if WriteMin32(&x, 70) {
		t.Error("WriteMin32(50->70) reported a write")
	}
	if x != 50 {
		t.Errorf("x = %d, want 50", x)
	}
	if WriteMin32(&x, 50) {
		t.Error("WriteMin32 equal value reported a write")
	}
}

func TestWriteMinConcurrentIsMinimum(t *testing.T) {
	var x int32 = 1 << 30
	const writers = 8
	const perWriter = 1000
	done := make(chan struct{}, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				WriteMin32(&x, int32(w*perWriter+i+1))
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	if x != 1 {
		t.Errorf("concurrent WriteMin32 final = %d, want 1", x)
	}
}

func TestPrimitivesUnderSingleProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var sum int64
	For(1000, 16, func(i int) { sum += int64(i) }) // safe: sequential when P=1
	if sum != 499500 {
		t.Errorf("For under GOMAXPROCS=1 sum = %d", sum)
	}
	src := []int64{5, 4, 3}
	dst := make([]int64, 3)
	if total := ExclusiveScan(dst, src, 1); total != 12 {
		t.Errorf("scan under GOMAXPROCS=1 total = %d", total)
	}
}

func BenchmarkForRange1M(b *testing.B) {
	data := make([]int64, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForRange(len(data), DefaultGrain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j]++
			}
		})
	}
}

func BenchmarkExclusiveScan1M(b *testing.B) {
	src := make([]int64, 1<<20)
	for i := range src {
		src[i] = int64(i % 3)
	}
	dst := make([]int64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExclusiveScan(dst, src, DefaultGrain)
	}
}
