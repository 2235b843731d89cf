// Package rng provides deterministic, seedable pseudo-random number
// generation for the reproduction of Blelloch, Fineman and Shun,
// "Greedy Sequential Maximal Independent Set and Matching are Parallel on
// Average" (SPAA 2012).
//
// Every randomized component of the library (vertex and edge priorities,
// graph generators, Luby's algorithm) derives its randomness from this
// package so that a fixed seed yields a bit-identical run at any level of
// parallelism. Two generators are provided: SplitMix64, a tiny generator
// mainly used for seeding and as a stateless hash, and Xoshiro256
// (xoshiro256**), a fast general-purpose generator with 256 bits of
// state. Neither is cryptographically secure; both are more than adequate
// for the statistical needs of the paper's experiments.
package rng

import "math/bits"

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// It is primarily used to expand a single user seed into the larger state
// of Xoshiro256 and as a building block for Hash64. The zero value is a
// valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 is the SplitMix64 finalizer applied to x. It is a high-quality
// 64-bit mixing function: a stateless way to obtain an apparently random
// value for an index, used for example to draw fresh per-round priorities
// in Luby's algorithm without any shared mutable generator state.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 mixes two words into one, suitable for indexed randomness such as
// Hash2(seed, item) or Hash2(round, vertex). Both arguments pass through
// the SplitMix64 finalizer so small structured inputs (consecutive
// indices) do not collide.
func Hash2(a, b uint64) uint64 {
	return Hash64(Hash64(a) ^ b)
}

// Hash3 mixes three words into one.
func Hash3(a, b, c uint64) uint64 {
	return Hash2(Hash2(a, b), c)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna. It has
// a period of 2^256-1 and passes the standard statistical test batteries.
// Construct it with NewXoshiro256; the zero value is invalid (an all-zero
// state is a fixed point) and is repaired lazily by Next.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed via
// SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	x.s[0] = sm.Next()
	x.s[1] = sm.Next()
	x.s[2] = sm.Next()
	x.s[3] = sm.Next()
	return &x
}

// Next returns the next value in the sequence.
func (x *Xoshiro256) Next() uint64 {
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		// Repair the forbidden all-zero state so the zero value is usable.
		x.s[0] = 0x9e3779b97f4a7c15
	}
	result := bits.RotateLeft64(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(x.Next(), n)
	if lo < n {
		// Rejection zone: resample until the low word clears the
		// threshold, guaranteeing exact uniformity.
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(x.Next(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int31n called with n <= 0")
	}
	return int32(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) * (1.0 / (1 << 53))
}
