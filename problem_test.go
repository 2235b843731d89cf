package greedy_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	greedy "repro"
	"repro/internal/rng"
)

// TestAnswerVerifyAndMatches runs every problem of the table through
// Solve and checks the problem-independent answer: the prefix answer
// verifies and matches the sequential one, an emptied answer (no
// members, every vertex color 0) fails both, and an unknown problem is
// an error, not a panic.
func TestAnswerVerifyAndMatches(t *testing.T) {
	ctx := context.Background()
	in := greedy.GraphInput(greedy.RandomGraph(300, 1200, 4))
	s := greedy.NewSolver(greedy.WithSeed(6))
	for _, p := range greedy.Problems() {
		seq, err := s.Solve(ctx, p, in, greedy.WithAlgorithm(greedy.AlgoSequential))
		if err != nil {
			t.Fatalf("%s sequential: %v", p, err)
		}
		pre, err := s.Solve(ctx, p, in, greedy.WithPrefixSize(7))
		if err != nil {
			t.Fatalf("%s prefix: %v", p, err)
		}
		if err := pre.Verify(in); err != nil || !pre.Matches(seq) || pre.Size != seq.Size {
			t.Errorf("%s: prefix answer invalid (%v) or not matching the sequential one", p, err)
		}
		empty := greedy.Answer{Problem: p, In: make([]bool, len(pre.In))}
		if pre.Colors != nil {
			empty.Colors = make([]int32, len(pre.Colors))
		}
		if empty.Verify(in) == nil || empty.Matches(seq) {
			t.Errorf("%s: an emptied answer verifies or matches", p)
		}
	}
	if _, err := s.Solve(ctx, "clique", in); err == nil || !strings.Contains(err.Error(), "unknown problem") {
		t.Errorf("Solve on an unknown problem: %v", err)
	}
}

// fnvReference is the hash/fnv digest of the bytes put appends, the
// digest greedyd served before Answer.Checksum, which stored results
// and clients already hold.
func fnvReference(put func(buf []byte) []byte) string {
	h := fnv.New64a()
	h.Write(put(nil))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAnswerChecksumMatchesFNV compares Answer.Checksum with hash/fnv
// over every answer shape — membership bits, colors and pairs — on
// random answers of several sizes and densities, and checks that it
// allocates only the returned string.
func TestAnswerChecksumMatchesFNV(t *testing.T) {
	x := rng.NewXoshiro256(5)
	for _, n := range []int{0, 1, 7, 4000, 1<<14 - 1, 1 << 14, 1<<14 + 1, 100_003} {
		for _, density := range []int{0, 1, 2, 8} {
			in := make([]bool, n)
			colors := make([]int32, n)
			var pairs []greedy.Edge
			for i := range in {
				in[i] = density > 0 && x.Intn(density) == 0
				colors[i] = int32(x.Intn(density + 1))
				if in[i] {
					pairs = append(pairs, greedy.Edge{U: int32(i), V: int32(x.Intn(n))})
				}
			}
			want := fnvReference(func(buf []byte) []byte {
				for _, b := range in {
					if b {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
				}
				return buf
			})
			if got := (greedy.Answer{In: in, Pairs: pairs}).Checksum(); got != want {
				t.Fatalf("n=%d, density 1/%d: membership checksum %s, want %s", n, density, got, want)
			}
			want = fnvReference(func(buf []byte) []byte {
				for _, c := range colors {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
				}
				return buf
			})
			if got := (greedy.Answer{Colors: colors, In: in}).Checksum(); got != want {
				t.Fatalf("n=%d, density 1/%d: colors checksum %s, want %s", n, density, got, want)
			}
			want = fnvReference(func(buf []byte) []byte {
				for _, e := range pairs {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
					buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
				}
				return buf
			})
			if got := (greedy.Answer{Pairs: pairs}).Checksum(); got != want {
				t.Fatalf("n=%d, density 1/%d: pairs checksum %s, want %s", n, density, got, want)
			}
		}
	}
	shapes := []greedy.Answer{
		{In: make([]bool, 4000)},
		{Colors: make([]int32, 4000)},
		{Pairs: make([]greedy.Edge, 2000)},
	}
	for i, a := range shapes {
		if allocs := testing.AllocsPerRun(20, func() { _ = a.Checksum() }); allocs > 1 {
			t.Fatalf("shape %d: Checksum allocates %.0f times, want at most 1 (its string)", i, allocs)
		}
	}
}
