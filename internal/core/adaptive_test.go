package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// TestAdaptiveMISMatchesSequential is the adaptive tentpole contract:
// for any window schedule the prefix algorithm returns exactly the
// sequential greedy MIS, so the controller can only change costs,
// never answers.
func TestAdaptiveMISMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":   graph.Random(4000, 20000, 7),
		"rmat":     graph.RMat(12, 20000, 7),
		"grid":     graph.Grid2D(64, 64),
		"star":     graph.Star(512),
		"complete": graph.Complete(128),
		"path":     graph.Path(2048),
		"edgeless": graph.Empty(300),
	}
	for name, g := range graphs {
		n := g.NumVertices()
		for _, seed := range []uint64{1, 9} {
			ord := NewRandomOrder(n, seed)
			want := referenceMIS(g, ord)
			got := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true}}))
			if !got.Equal(want) {
				t.Errorf("%s seed %d: adaptive MIS differs from sequential", name, seed)
			}
			if err := VerifyLexFirst(g, ord, got); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
			// Pointered variant under the same schedule dynamics.
			ptr := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true}, Pointered: true}))
			if !ptr.Equal(want) {
				t.Errorf("%s seed %d: adaptive pointered MIS differs", name, seed)
			}
		}
	}
}

// TestAdaptiveDeterministicAcrossGrain checks that the window schedule
// — not just the result — is independent of the parallel grain: the
// controller consumes only machine-independent counters, and the
// default start window is a constant, so Stats and the per-round
// windows are identical for any chunking.
func TestAdaptiveDeterministicAcrossGrain(t *testing.T) {
	g := graph.Random(3000, 15000, 3)
	ord := NewRandomOrder(3000, 4)
	var windows [][]int
	var stats []Stats
	for _, grain := range []int{0, 7, 256, 4096} {
		var trace []int
		r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, Grain: grain, OnRound: func(rs RoundStat) {
			trace = append(trace, rs.PrefixSize)
		}}}))
		windows = append(windows, trace)
		stats = append(stats, r.Stats)
	}
	for i := 1; i < len(windows); i++ {
		if stats[i] != stats[0] {
			t.Fatalf("grain changed adaptive stats: %+v vs %+v", stats[i], stats[0])
		}
		if len(windows[i]) != len(windows[0]) {
			t.Fatalf("grain changed round count: %d vs %d", len(windows[i]), len(windows[0]))
		}
		for j := range windows[i] {
			if windows[i][j] != windows[0][j] {
				t.Fatalf("grain changed window schedule at round %d: %d vs %d", j, windows[i][j], windows[0][j])
			}
		}
	}
}

// TestAdaptiveWindowBounds checks every window stays in [1, n] and that
// growth respects the parallel-slack cap.
func TestAdaptiveWindowBounds(t *testing.T) {
	g := graph.Random(5000, 25000, 5)
	ord := NewRandomOrder(5000, 6)
	cap := engine.AdaptiveGrowCap(5000)
	r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, OnRound: func(rs RoundStat) {
		if rs.PrefixSize < 1 || rs.PrefixSize > 5000 {
			t.Errorf("round %d: window %d outside [1, n]", rs.Round, rs.PrefixSize)
		}
		if rs.PrefixSize > cap {
			t.Errorf("round %d: window %d above grow cap %d", rs.Round, rs.PrefixSize, cap)
		}
		if rs.Attempted > rs.PrefixSize {
			t.Errorf("round %d: attempted %d exceeds window %d", rs.Round, rs.Attempted, rs.PrefixSize)
		}
	}}}))
	if r.Stats.PrefixSize > cap {
		t.Errorf("max window %d above grow cap %d", r.Stats.PrefixSize, cap)
	}
}

// TestAdaptiveExplicitSeedWindow checks that an explicit prefix seeds
// the initial window (even above the grow cap) instead of the default
// start.
func TestAdaptiveExplicitSeedWindow(t *testing.T) {
	g := graph.Random(4000, 12000, 2)
	ord := NewRandomOrder(4000, 2)
	first := -1
	must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, PrefixSize: 3000, OnRound: func(rs RoundStat) {
		if first < 0 {
			first = rs.PrefixSize
		}
	}}}))
	if first != 3000 {
		t.Errorf("explicit prefix seed: first window %d, want 3000", first)
	}
}

// TestAdaptiveStatsAccounting checks the Figure 1 bookkeeping under a
// varying window: attempts sum over rounds, rounds equal observer
// callbacks, and PrefixSize reports the largest window used.
func TestAdaptiveStatsAccounting(t *testing.T) {
	g := graph.Random(3000, 15000, 8)
	ord := NewRandomOrder(3000, 8)
	var rounds int64
	var attempts int64
	maxW := 0
	r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, OnRound: func(rs RoundStat) {
		rounds++
		attempts += int64(rs.Attempted)
		if rs.PrefixSize > maxW {
			maxW = rs.PrefixSize
		}
	}}}))
	if rounds != r.Stats.Rounds {
		t.Errorf("observer rounds %d, stats %d", rounds, r.Stats.Rounds)
	}
	if attempts != r.Stats.Attempts {
		t.Errorf("observer attempts %d, stats %d", attempts, r.Stats.Attempts)
	}
	if maxW != r.Stats.PrefixSize {
		t.Errorf("observer max window %d, stats PrefixSize %d", maxW, r.Stats.PrefixSize)
	}
	if r.Stats.Attempts < int64(g.NumVertices()) {
		t.Errorf("attempts %d below n", r.Stats.Attempts)
	}
}

// TestAdaptivePrefixSizeIsUsedWindow pins a subtle accounting bug: on
// an input that finishes before the grow cap is reached (an edgeless
// graph resolves everything immediately, so the controller doubles
// after every round including the last), Stats.PrefixSize must report
// the largest window a round actually RAN at, not the controller's
// decision for a round that never happened.
func TestAdaptivePrefixSizeIsUsedWindow(t *testing.T) {
	g := graph.Empty(768)
	ord := NewRandomOrder(768, 1)
	maxSeen := 0
	r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, OnRound: func(rs RoundStat) {
		if rs.PrefixSize > maxSeen {
			maxSeen = rs.PrefixSize
		}
	}}}))
	if r.Stats.PrefixSize != maxSeen {
		t.Errorf("Stats.PrefixSize %d, but the largest executed window was %d", r.Stats.PrefixSize, maxSeen)
	}
	if maxSeen != 512 {
		t.Errorf("largest executed window %d, want 512 (256 then one doubling)", maxSeen)
	}
}

// TestAdaptiveShrinkKeepsEarliestWindow forces a shrinking schedule (a
// complete graph resolves one vertex per full-window round, so
// acceptance collapses and the controller halves repeatedly) and
// verifies the result is still the sequential MIS — i.e. the
// tail-slide after a shrunken round preserves the earliest-unresolved
// invariant.
func TestAdaptiveShrinkKeepsEarliestWindow(t *testing.T) {
	g := graph.Complete(600)
	ord := NewRandomOrder(600, 11)
	shrank := false
	prev := 0
	r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, PrefixSize: 512, OnRound: func(rs RoundStat) {
		if prev > 0 && rs.PrefixSize < prev {
			shrank = true
		}
		prev = rs.PrefixSize
	}}}))
	if !shrank {
		t.Fatal("schedule never shrank on K600 (test premise broken)")
	}
	if !r.Equal(referenceMIS(g, ord)) {
		t.Fatal("adaptive MIS differs from sequential after shrinking rounds")
	}
}

// TestAdaptiveTinyGraphEndToEnd runs the adaptive prefix loop on
// inputs below every cap threshold and checks both the answer (always
// the sequential MIS) and that no executed window exceeds the input.
func TestAdaptiveTinyGraphEndToEnd(t *testing.T) {
	for _, n := range []int{1, 2, 5, 50, 255} {
		g := graph.Path(n)
		ord := NewRandomOrder(n, 3)
		r := must(PrefixMIS(context.Background(), g, ord, Options{Options: engine.Options{Adaptive: true, OnRound: func(rs RoundStat) {
			if rs.PrefixSize > n {
				t.Errorf("n=%d: executed window %d exceeds input", n, rs.PrefixSize)
			}
		}}}))
		if !r.Equal(referenceMIS(g, ord)) {
			t.Errorf("n=%d: adaptive MIS differs from sequential", n)
		}
		if r.Stats.PrefixSize > n {
			t.Errorf("n=%d: PrefixSize %d exceeds input", n, r.Stats.PrefixSize)
		}
	}
}
