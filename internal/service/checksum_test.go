package service

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/rng"
)

// membershipChecksumReference is the chunked hash/fnv implementation
// membershipChecksum replaced; its digests are the ones stored results
// and clients already hold.
func membershipChecksumReference(in []bool) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 1<<14)
	for _, x := range in {
		b := byte(0)
		if x {
			b = 1
		}
		buf = append(buf, b)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMembershipChecksumMatchesReference compares the plain-loop
// checksum with the reference on random vectors of several densities,
// on both sides of the reference's 16 KiB chunk, and checks that it
// allocates only the returned string.
func TestMembershipChecksumMatchesReference(t *testing.T) {
	x := rng.NewXoshiro256(5)
	for _, n := range []int{0, 1, 7, 4000, 1<<14 - 1, 1 << 14, 1<<14 + 1, 100_003} {
		for _, density := range []int{0, 1, 2, 8} {
			in := make([]bool, n)
			for i := range in {
				in[i] = density > 0 && x.Intn(density) == 0
			}
			if got, want := membershipChecksum(in), membershipChecksumReference(in); got != want {
				t.Fatalf("n=%d, density 1/%d: checksum %s, want %s", n, density, got, want)
			}
		}
	}
	in := make([]bool, 4000)
	if allocs := testing.AllocsPerRun(20, func() { membershipChecksum(in) }); allocs > 1 {
		t.Fatalf("membershipChecksum allocates %.0f times, want at most 1 (its string)", allocs)
	}
}
