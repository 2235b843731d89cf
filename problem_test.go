package greedy_test

import (
	"context"
	"strings"
	"testing"

	greedy "repro"
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
