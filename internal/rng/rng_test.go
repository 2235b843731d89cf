package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the public-domain C
	// implementation of splitmix64.
	s := NewSplitMix64(1234567)
	want := []uint64{
		0x599ed017fb08fc85, // 6457827717110365317
		0x2c73f08458540fa5,
		0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Errorf("SplitMix64(1234567) value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("two SplitMix64 with same seed diverged at step %d", i)
		}
	}
}

func TestHash64MatchesSplitMix(t *testing.T) {
	// Hash64(x) must equal the first output of SplitMix64 seeded with x.
	for _, x := range []uint64{0, 1, 42, 1 << 40, math.MaxUint64} {
		s := NewSplitMix64(x)
		if got, want := Hash64(x), s.Next(); got != want {
			t.Errorf("Hash64(%d) = %#x, want %#x", x, got, want)
		}
	}
}

func TestHash2Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 100; a++ {
		for b := uint64(0); b < 100; b++ {
			h := Hash2(a, b)
			if seen[h] {
				t.Fatalf("Hash2 collision within 100x100 grid at (%d,%d)", a, b)
			}
			seen[h] = true
		}
	}
}

// TestHash3SplitsAtItsPrefix checks the identity the rMat generator
// relies on to hash a draw's (seed, index) prefix once for all its
// levels: Hash3(a, b, c) == Hash64(Hash64(Hash2(a, b)) ^ c). Redefining
// Hash3 or Hash2 without the generator fails here first.
func TestHash3SplitsAtItsPrefix(t *testing.T) {
	x := NewXoshiro256(3)
	for i := 0; i < 10_000; i++ {
		a, b, c := x.Next(), x.Next(), x.Next()
		if i%4 == 0 {
			c %= 32 // the generator's levels are small
		}
		if got, want := Hash64(Hash64(Hash2(a, b))^c), Hash3(a, b, c); got != want {
			t.Fatalf("Hash3(%#x, %#x, %#x) = %#x, but the prefix form gives %#x", a, b, c, want, got)
		}
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := NewXoshiro256(7), NewXoshiro256(7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("two Xoshiro256 with same seed diverged at step %d", i)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a, b := NewXoshiro256(1), NewXoshiro256(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("generators with different seeds agreed on %d/100 outputs", same)
	}
}

func TestXoshiroZeroValueUsable(t *testing.T) {
	var x Xoshiro256
	a := x.Next()
	bv := x.Next()
	if a == 0 && bv == 0 {
		t.Error("zero-value Xoshiro256 is stuck at zero")
	}
}

func TestUint64nBounds(t *testing.T) {
	x := NewXoshiro256(99)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 33} {
		for i := 0; i < 200; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro256(1).Uint64n(0)
}

func TestIntnUniformityChiSquare(t *testing.T) {
	// Loose chi-square check over 10 buckets: statistic should be far
	// below the df=9 p=0.001 critical value (27.88) for a healthy PRNG.
	x := NewXoshiro256(2024)
	const buckets, samples = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[x.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Errorf("chi-square statistic %.2f exceeds critical value 27.88; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(5)
	sum := 0.0
	const samples = 100000
	for i := 0; i < samples; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / samples
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestJumpChangesStream(t *testing.T) {
	a := NewXoshiro256(3)
	b := NewXoshiro256(3)
	b.Jump()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("jumped stream agreed with original on %d/100 outputs", same)
	}
}

func TestPermIsPermutationQuick(t *testing.T) {
	f := func(n uint16, seed uint64) bool {
		p := Perm(int(n%2000), seed)
		return IsPerm(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermDeterministic(t *testing.T) {
	a := Perm(1000, 17)
	b := Perm(1000, 17)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Perm not deterministic at index %d", i)
		}
	}
}

func TestPermSeedsDiffer(t *testing.T) {
	a := Perm(1000, 1)
	b := Perm(1000, 2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	// Expected number of fixed points between two random permutations is 1.
	if same > 20 {
		t.Errorf("permutations from different seeds agree on %d/1000 positions", same)
	}
}

func TestPermEdgeCases(t *testing.T) {
	if got := Perm(0, 1); len(got) != 0 {
		t.Errorf("Perm(0) has length %d", len(got))
	}
	if got := Perm(1, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("Perm(1) = %v", got)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of Perm(4, seed) should be near-uniform over seeds.
	counts := make([]int, 4)
	for seed := uint64(0); seed < 4000; seed++ {
		counts[Perm(4, seed)[0]]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("value %d appeared first %d/4000 times, want about 1000", v, c)
		}
	}
}

func TestInversePermRoundTrip(t *testing.T) {
	f := func(n uint16, seed uint64) bool {
		p := Perm(int(n%1000), seed)
		q := InversePerm(p)
		for r, v := range p {
			if q[v] != int32(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInversePermPanicsOnNonPerm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InversePerm on a non-permutation did not panic")
		}
	}()
	InversePerm([]int32{0, 0, 1})
}

func TestIsPerm(t *testing.T) {
	cases := []struct {
		p    []int32
		want bool
	}{
		{[]int32{}, true},
		{[]int32{0}, true},
		{[]int32{1, 0}, true},
		{[]int32{0, 0}, false},
		{[]int32{0, 2}, false},
		{[]int32{-1, 0}, false},
		{[]int32{2, 0, 1}, true},
	}
	for _, c := range cases {
		if got := IsPerm(c.p); got != c.want {
			t.Errorf("IsPerm(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestIdentity(t *testing.T) {
	p := Identity(5)
	for i, v := range p {
		if int(v) != i {
			t.Errorf("Identity[%d] = %d", i, v)
		}
	}
	if !IsPerm(p) {
		t.Error("Identity is not a permutation")
	}
}

func TestShuffleInPlacePreservesElements(t *testing.T) {
	p := []int32{5, 5, 7, 9, 11}
	Shuffle(p, 3)
	counts := map[int32]int{}
	for _, v := range p {
		counts[v]++
	}
	if counts[5] != 2 || counts[7] != 1 || counts[9] != 1 || counts[11] != 1 {
		t.Errorf("Shuffle changed multiset: %v", p)
	}
}

func BenchmarkXoshiroNext(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Next()
	}
	_ = sink
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Hash64(uint64(i))
	}
	_ = sink
}

func BenchmarkPerm1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Perm(1<<20, uint64(i))
	}
}
