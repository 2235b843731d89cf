package parallel

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSortUint64MatchesStdlibQuick(t *testing.T) {
	f := func(raw []uint64) bool {
		mine := append([]uint64(nil), raw...)
		ref := append([]uint64(nil), raw...)
		SortUint64(mine)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range ref {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortUint64Large(t *testing.T) {
	x := rng.NewXoshiro256(1)
	keys := make([]uint64, 300000)
	for i := range keys {
		keys[i] = x.Next()
	}
	SortUint64(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestSortUint64SmallKeys(t *testing.T) {
	// Exercises the constant-high-digit skip path.
	x := rng.NewXoshiro256(2)
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = uint64(x.Intn(1000))
	}
	SortUint64(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestSortUint64EdgeCases(t *testing.T) {
	SortUint64(nil)
	SortUint64([]uint64{})
	one := []uint64{42}
	SortUint64(one)
	if one[0] != 42 {
		t.Error("singleton changed")
	}
	two := []uint64{9, 3}
	SortUint64(two)
	if two[0] != 3 || two[1] != 9 {
		t.Errorf("pair not sorted: %v", two)
	}
	same := []uint64{7, 7, 7, 7}
	SortUint64(same)
	for _, v := range same {
		if v != 7 {
			t.Error("identical keys corrupted")
		}
	}
	extremes := []uint64{^uint64(0), 0, 1<<63 + 5, 1 << 32, 255, 256}
	SortUint64(extremes)
	for i := 1; i < len(extremes); i++ {
		if extremes[i-1] > extremes[i] {
			t.Fatalf("extremes not sorted: %v", extremes)
		}
	}
}

func BenchmarkSortUint64Radix1M(b *testing.B) {
	x := rng.NewXoshiro256(1)
	orig := make([]uint64, 1<<20)
	for i := range orig {
		orig[i] = x.Next()
	}
	keys := make([]uint64, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, orig)
		SortUint64(keys)
	}
}

func BenchmarkSortUint64Stdlib1M(b *testing.B) {
	x := rng.NewXoshiro256(1)
	orig := make([]uint64, 1<<20)
	for i := range orig {
		orig[i] = x.Next()
	}
	keys := make([]uint64, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, orig)
		sort.Slice(keys, func(a, c int) bool { return keys[a] < keys[c] })
	}
}
