package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

func TestOnRoundTraceConsistency(t *testing.T) {
	g, ord := randomGraphAndOrder(2000, 10000, 13)
	var rounds []int64
	var attempted, resolved []int
	var inspections int64
	res := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.05, OnRound: func(rs RoundStat) {
		rounds = append(rounds, rs.Round)
		attempted = append(attempted, rs.Attempted)
		resolved = append(resolved, rs.Accepted)
		inspections += rs.EdgeInspections
	}}}))
	if inspections != res.Stats.EdgeInspections {
		t.Errorf("trace inspections %d != stats inspections %d", inspections, res.Stats.EdgeInspections)
	}
	if int64(len(rounds)) != res.Stats.Rounds {
		t.Fatalf("trace has %d rounds, stats say %d", len(rounds), res.Stats.Rounds)
	}
	var totalAttempts, totalResolved int64
	for i := range rounds {
		if rounds[i] != int64(i+1) {
			t.Fatalf("round numbers not consecutive at %d: %d", i, rounds[i])
		}
		if resolved[i] < 0 || resolved[i] > attempted[i] {
			t.Fatalf("round %d: resolved %d out of attempted %d", i+1, resolved[i], attempted[i])
		}
		totalAttempts += int64(attempted[i])
		totalResolved += int64(resolved[i])
	}
	if totalAttempts != res.Stats.Attempts {
		t.Errorf("trace attempts %d != stats attempts %d", totalAttempts, res.Stats.Attempts)
	}
	if totalResolved != int64(g.NumVertices()) {
		t.Errorf("trace resolved %d != n %d", totalResolved, g.NumVertices())
	}
	// Every round must make progress (the speculative loop guarantees
	// the earliest active iterate resolves).
	for i, d := range resolved {
		if d == 0 {
			t.Fatalf("round %d made no progress", i+1)
		}
	}
}

func TestOnRoundNilIsDefault(t *testing.T) {
	g, ord := randomGraphAndOrder(500, 2500, 14)
	a := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.1}}))
	b := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 0.1, OnRound: func(RoundStat) {}}}))
	if !a.Equal(b) || a.Stats != b.Stats {
		t.Error("OnRound changed the computation")
	}
}

func TestOnRoundFullPrefixProfile(t *testing.T) {
	// At the full prefix the first round attempts everything and later
	// rounds shrink monotonically (only retries remain after the pool
	// is exhausted).
	g, ord := randomGraphAndOrder(3000, 15000, 15)
	var attempted []int
	must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixFrac: 1, OnRound: func(rs RoundStat) {
		attempted = append(attempted, rs.Attempted)
	}}}))
	if attempted[0] != g.NumVertices() {
		t.Errorf("first full-prefix round attempted %d, want n", attempted[0])
	}
	for i := 1; i < len(attempted); i++ {
		if attempted[i] > attempted[i-1] {
			t.Fatalf("active set grew at round %d: %d -> %d", i+1, attempted[i-1], attempted[i])
		}
	}
}

func TestVertexProgressGuarantee(t *testing.T) {
	// The earliest unresolved vertex always resolves in the next round:
	// verified indirectly by bounding rounds <= n for prefix 1 and by
	// the no-zero-progress trace check; here we additionally pin a
	// degenerate case: a clique processed with a tiny prefix.
	g := graph.Complete(30)
	ord := NewRandomOrder(30, 1)
	r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{PrefixSize: 3}}))
	if r.Size() != 1 {
		t.Errorf("K30 MIS size = %d", r.Size())
	}
	if r.Stats.Rounds > 30 {
		t.Errorf("K30 with prefix 3 took %d rounds", r.Stats.Rounds)
	}
}
