package greedy_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	greedy "repro"
	"repro/internal/matching"
)

// cancelAfterRounds returns a context plus an option that cancels it
// once the observed run completes k rounds. Because the observer runs
// between rounds on the solver goroutine, the cancellation must be
// noticed at the next round boundary — the "within one round" bound.
func cancelAfterRounds(k int64) (context.Context, greedy.Option) {
	ctx, cancel := context.WithCancel(context.Background())
	opt := greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
		if ri.Round >= k {
			cancel()
		}
	})
	return ctx, opt
}

func TestSolverCancellationMIS(t *testing.T) {
	g := greedy.RandomGraph(20_000, 100_000, 3)
	for _, algo := range []greedy.Algorithm{
		greedy.AlgoPrefix, greedy.AlgoParallel, greedy.AlgoRootSet, greedy.AlgoLuby,
	} {
		s := greedy.NewSolver(greedy.WithAlgorithm(algo), greedy.WithPrefixSize(64))
		ctx, obs := cancelAfterRounds(1)
		res, err := s.MIS(ctx, g, obs)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled MIS returned (%v, %v), want ctx.Err()", algo, res, err)
		}
		// The same solver (and workspace) must still run to completion
		// afterwards, and agree with a fresh solver.
		got, err := s.MIS(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: post-cancel run failed: %v", algo, err)
		}
		want, err := greedy.NewSolver(greedy.WithAlgorithm(algo), greedy.WithPrefixSize(64)).MIS(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: post-cancel result differs from fresh solver", algo)
		}
	}
}

func TestSolverCancellationSequentialMIS(t *testing.T) {
	// The sequential scan has no rounds; it checks the context every few
	// thousand iterations. A pre-cancelled context must abort before
	// doing the full scan.
	g := greedy.RandomGraph(50_000, 200_000, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := greedy.NewSolver(greedy.WithAlgorithm(greedy.AlgoSequential))
	if _, err := s.MIS(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sequential MIS returned %v, want ctx.Err()", err)
	}
}

func TestSolverCancellationMM(t *testing.T) {
	g := greedy.RandomGraph(20_000, 100_000, 4)
	el := g.EdgeList()
	s := greedy.NewSolver(greedy.WithPrefixSize(64))
	ctx, obs := cancelAfterRounds(1)
	if _, err := s.MM(ctx, el, obs); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled MM returned %v, want ctx.Err()", err)
	}
	got, err := s.MM(context.Background(), el)
	if err != nil {
		t.Fatal(err)
	}
	if !matching.IsMaximalMatching(el, got.InMatching) {
		t.Error("post-cancel MM not maximal")
	}
}

func TestSolverCancellationSF(t *testing.T) {
	g := greedy.RandomGraph(20_000, 100_000, 6)
	el := g.EdgeList()
	s := greedy.NewSolver(greedy.WithPrefixSize(64))
	ctx, obs := cancelAfterRounds(1)
	if _, err := s.SF(ctx, el, obs); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SF returned %v, want ctx.Err()", err)
	}
	if _, err := s.SF(context.Background(), el); err != nil {
		t.Fatalf("post-cancel SF failed: %v", err)
	}
}

func TestSolverCancelledContextBeatsCompletion(t *testing.T) {
	// A context cancelled before the call never returns a result.
	g := greedy.RandomGraph(1000, 5000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := greedy.NewSolver()
	if res, err := s.MIS(ctx, g); err == nil || res != nil {
		t.Errorf("pre-cancelled MIS returned (%v, %v)", res, err)
	}
}

func TestSolverWorkspaceReuseBitIdentical(t *testing.T) {
	big := greedy.RandomGraph(10_000, 50_000, 7)
	small := greedy.RandomGraph(2_000, 8_000, 8)
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(9))

	// Two consecutive runs on the same graph, then a run on a smaller
	// graph (exercising size-down buffer reuse), each compared against a
	// fresh solver.
	for i, g := range []*greedy.Graph{big, big, small} {
		got, err := s.MIS(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := greedy.NewSolver(greedy.WithSeed(9)).MIS(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Stats != want.Stats {
			t.Fatalf("run %d: reused workspace changed the MIS result or stats", i)
		}
	}

	for i, g := range []*greedy.Graph{big, big, small} {
		el := g.EdgeList()
		got, err := s.MM(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		want, err := greedy.NewSolver(greedy.WithSeed(9)).MM(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Stats != want.Stats {
			t.Fatalf("run %d: reused workspace changed the MM result or stats", i)
		}
	}

	for i, g := range []*greedy.Graph{big, big, small} {
		el := g.EdgeList()
		got, err := s.SF(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		want, err := greedy.NewSolver(greedy.WithSeed(9)).SF(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Stats != want.Stats {
			t.Fatalf("run %d: reused workspace changed the SF result or stats", i)
		}
	}
}

func TestSolverReuseAcrossAlgorithms(t *testing.T) {
	// One solver cycling through algorithms must reproduce each fresh
	// answer: the pooled buffers carry no state between runs.
	g := greedy.RandomGraph(5_000, 25_000, 11)
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(2))
	want, err := s.MIS(ctx, g, greedy.WithAlgorithm(greedy.AlgoSequential))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []greedy.Algorithm{greedy.AlgoPrefix, greedy.AlgoRootSet, greedy.AlgoParallel, greedy.AlgoPrefix} {
		got, err := s.MIS(ctx, g, greedy.WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("algorithm %s on reused solver disagrees with sequential", algo)
		}
	}
}

// The Solver caches one set of parent lists per (graph, derived-order
// seed). Cycling one Solver through a graph, another graph of the same
// size, another seed, the first pair again and an explicit order, every
// path that reads the cache — prefix MIS, pointered MIS, full-window
// MIS and prefix coloring — must return what a fresh Solver returns.
func TestSolverParentsCache(t *testing.T) {
	ctx := context.Background()
	a := greedy.RandomGraph(4_000, 20_000, 41)
	b := greedy.RandomGraph(4_000, 20_000, 42)
	steps := []struct {
		name string
		g    *greedy.Graph
		opts []greedy.Option
	}{
		{"A seed 1", a, []greedy.Option{greedy.WithSeed(1)}},
		{"B seed 1", b, []greedy.Option{greedy.WithSeed(1)}},
		{"A seed 2", a, []greedy.Option{greedy.WithSeed(2)}},
		{"A seed 1 again", a, []greedy.Option{greedy.WithSeed(1)}},
		{"A explicit order", a, []greedy.Option{greedy.WithSeed(1), greedy.WithOrder(greedy.NewRandomOrder(a.NumVertices(), 77))}},
	}
	variants := []struct {
		name string
		opts []greedy.Option
	}{
		{"prefix", nil},
		{"pointered", []greedy.Option{greedy.WithPointer()}},
		{"parallel", []greedy.Option{greedy.WithAlgorithm(greedy.AlgoParallel)}},
	}
	s := greedy.NewSolver()
	for _, st := range steps {
		for _, v := range variants {
			opts := append(append([]greedy.Option(nil), st.opts...), v.opts...)
			got, err := s.MIS(ctx, st.g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := greedy.NewSolver().MIS(ctx, st.g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || got.Stats != want.Stats {
				t.Fatalf("%s, %s MIS: reused solver differs from a fresh one", st.name, v.name)
			}
		}
		got, err := s.Coloring(ctx, st.g, st.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := greedy.NewSolver().Coloring(ctx, st.g, st.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Stats != want.Stats {
			t.Fatalf("%s coloring: reused solver differs from a fresh one", st.name)
		}
	}
}

// The Solver caches one hitting-set layout per (system, derived-order
// seed). Cycling one Solver through a system, another system over the
// same elements, another seed, the first pair again and an explicit
// order must return what a fresh Solver returns, result and counters.
func TestSolverHittingSetCache(t *testing.T) {
	ctx := context.Background()
	a := greedy.HittingSystemFromEdges(greedy.RandomGraph(4_000, 20_000, 41).EdgeList())
	sets := make([][]int32, 0, 2_000)
	for i := 0; i < 2_000; i++ {
		sets = append(sets, []int32{int32(i), int32(2*i) % 4_000, int32(7*i+3) % 4_000})
	}
	b, err := greedy.NewSystem(4_000, sets)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		sys  *greedy.System
		opts []greedy.Option
	}{
		{"A seed 1", a, []greedy.Option{greedy.WithSeed(1)}},
		{"B seed 1", b, []greedy.Option{greedy.WithSeed(1)}},
		{"A seed 2", a, []greedy.Option{greedy.WithSeed(2)}},
		{"A seed 1 again", a, []greedy.Option{greedy.WithSeed(1)}},
		{"A explicit order", a, []greedy.Option{greedy.WithSeed(1), greedy.WithOrder(greedy.NewRandomOrder(a.NumElements(), 77))}},
	}
	s := greedy.NewSolver()
	for _, st := range steps {
		got, err := s.HittingSet(ctx, st.sys, st.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := greedy.NewSolver().HittingSet(ctx, st.sys, st.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Stats != want.Stats {
			t.Fatalf("%s: reused solver differs from a fresh one", st.name)
		}
	}
}

// MM and SF share one rank-ordered edge buffer, and SF overwrites it
// with root snapshots, so every call must regather it. Alternating the
// two problems over two edge lists on one Solver must match fresh
// Solvers call for call; a call that reused the previous gather would
// read another list's edges or SF's roots.
func TestSolverEdgeBufferSharedBySFAndMM(t *testing.T) {
	ctx := context.Background()
	lists := []greedy.EdgeList{
		greedy.RandomGraph(3_000, 15_000, 5).EdgeList(),
		greedy.RandomGraph(3_000, 15_000, 6).EdgeList(),
	}
	solve := func(s *greedy.Solver, problem string, el greedy.EdgeList) ([]bool, greedy.Stats) {
		if problem == "mm" {
			r, err := s.MM(ctx, el)
			if err != nil {
				t.Fatal(err)
			}
			return r.InMatching, r.Stats
		}
		r, err := s.SF(ctx, el)
		if err != nil {
			t.Fatal(err)
		}
		return r.InForest, r.Stats
	}
	s := greedy.NewSolver(greedy.WithSeed(3))
	for _, i := range []int{0, 1, 0} {
		for step, problem := range []string{"sf", "mm", "sf"} {
			got, gotStats := solve(s, problem, lists[i])
			want, wantStats := solve(greedy.NewSolver(greedy.WithSeed(3)), problem, lists[i])
			if !slices.Equal(got, want) || gotStats != wantStats {
				t.Fatalf("list %d, step %d (%s): reused solver differs from a fresh one", i, step, problem)
			}
		}
	}
}

func TestSolverSecondRunAllocatesStrictlyLess(t *testing.T) {
	g := greedy.RandomGraph(20_000, 100_000, 13)
	ctx := context.Background()

	fresh := testing.AllocsPerRun(5, func() {
		if _, err := greedy.NewSolver().MIS(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	s := greedy.NewSolver()
	if _, err := s.MIS(ctx, g); err != nil { // first run: sizes the workspace
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(5, func() {
		if _, err := s.MIS(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	if !(warm < fresh) {
		t.Errorf("warm solver run allocates %.0f, fresh %.0f; want strictly less", warm, fresh)
	}
	t.Logf("MIS allocs/run: fresh=%.0f warm=%.0f", fresh, warm)

	el := g.EdgeList()
	freshMM := testing.AllocsPerRun(5, func() {
		if _, err := greedy.NewSolver().MM(ctx, el); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := s.MM(ctx, el); err != nil {
		t.Fatal(err)
	}
	warmMM := testing.AllocsPerRun(5, func() {
		if _, err := s.MM(ctx, el); err != nil {
			t.Fatal(err)
		}
	})
	if !(warmMM < freshMM) {
		t.Errorf("warm MM run allocates %.0f, fresh %.0f; want strictly less", warmMM, freshMM)
	}
	t.Logf("MM allocs/run: fresh=%.0f warm=%.0f", freshMM, warmMM)
}

func TestSolverErrorsInsteadOfPanics(t *testing.T) {
	g := greedy.RandomGraph(100, 400, 1)
	el := g.EdgeList()
	ctx := context.Background()
	s := greedy.NewSolver()

	if _, err := s.MM(ctx, el, greedy.WithAlgorithm(greedy.AlgoLuby)); !errors.Is(err, greedy.ErrLubyMatching) {
		t.Errorf("Luby MM returned %v, want ErrLubyMatching", err)
	}
	bad := greedy.NewRandomOrder(7, 1)
	if _, err := s.MIS(ctx, g, greedy.WithOrder(bad)); !errors.Is(err, greedy.ErrOrderSize) {
		t.Errorf("mismatched order returned %v, want ErrOrderSize", err)
	}
	if _, err := s.MM(ctx, el, greedy.WithOrder(bad)); !errors.Is(err, greedy.ErrOrderSize) {
		t.Errorf("mismatched MM order returned %v, want ErrOrderSize", err)
	}
	if _, err := s.SF(ctx, el, greedy.WithAlgorithm(greedy.AlgoRootSet)); !errors.Is(err, greedy.ErrSpanningAlgorithm) {
		t.Errorf("SF rootset returned %v, want ErrSpanningAlgorithm", err)
	}
}

func TestSolverRoundObserverConsistency(t *testing.T) {
	g := greedy.RandomGraph(5_000, 25_000, 17)
	ctx := context.Background()
	var rounds int64
	var attempted, accepted, inspections int64
	var prefix int
	s := greedy.NewSolver(greedy.WithPrefixFrac(0.05))
	res, err := s.MIS(ctx, g, greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
		rounds++
		if ri.Round != rounds {
			t.Fatalf("round %d reported out of order (want %d)", ri.Round, rounds)
		}
		attempted += int64(ri.Attempted)
		accepted += int64(ri.Accepted)
		inspections += ri.EdgeInspections
		prefix = ri.PrefixSize
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Stats.Rounds {
		t.Errorf("observer saw %d rounds, stats say %d", rounds, res.Stats.Rounds)
	}
	if attempted != res.Stats.Attempts {
		t.Errorf("observer attempted %d, stats %d", attempted, res.Stats.Attempts)
	}
	if accepted != int64(g.NumVertices()) {
		t.Errorf("observer accepted %d, want n=%d", accepted, g.NumVertices())
	}
	if inspections != res.Stats.EdgeInspections {
		t.Errorf("observer inspections %d, stats %d", inspections, res.Stats.EdgeInspections)
	}
	if prefix != res.Stats.PrefixSize {
		t.Errorf("observer prefix %d, stats %d", prefix, res.Stats.PrefixSize)
	}

	// The observer is read-only: same answer with and without.
	plain, err := greedy.NewSolver(greedy.WithPrefixFrac(0.05)).MIS(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(res) || plain.Stats != res.Stats {
		t.Error("observer changed the computation")
	}
}

// TestSolverRoundObserverFanOut: WithRoundObserver composes — a
// default observer on the Solver and a per-call observer both see
// every round, in registration order (defaults first), with identical
// payloads. This is the contract the service layer's trace recording
// relies on: attaching telemetry must not clobber a user observer.
func TestSolverRoundObserverFanOut(t *testing.T) {
	g := greedy.RandomGraph(5_000, 25_000, 17)
	ctx := context.Background()
	var defaultSeen, callSeen []greedy.RoundInfo
	var order []string
	s := greedy.NewSolver(
		greedy.WithPrefixFrac(0.05),
		greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
			defaultSeen = append(defaultSeen, ri)
			order = append(order, "default")
		}),
	)
	res, err := s.MIS(ctx, g, greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
		callSeen = append(callSeen, ri)
		order = append(order, "call")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(defaultSeen)) != res.Stats.Rounds || int64(len(callSeen)) != res.Stats.Rounds {
		t.Fatalf("observers saw %d/%d rounds, stats say %d", len(defaultSeen), len(callSeen), res.Stats.Rounds)
	}
	for i := range defaultSeen {
		if defaultSeen[i] != callSeen[i] {
			t.Fatalf("round %d: observers disagree: %+v vs %+v", i+1, defaultSeen[i], callSeen[i])
		}
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "default" || order[i+1] != "call" {
			t.Fatalf("fan-out order at round %d: %v, want default before call", i/2+1, order[i:i+2])
		}
	}
	// A nil observer is ignored rather than registered.
	if _, err := s.MIS(ctx, g, greedy.WithRoundObserver(nil)); err != nil {
		t.Fatal(err)
	}
}

func TestSolverDefaultsAndOverrides(t *testing.T) {
	g := greedy.RandomGraph(2_000, 8_000, 19)
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(5), greedy.WithPrefixSize(33))
	res, err := s.MIS(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrefixSize != 33 {
		t.Errorf("solver default prefix not applied: %d", res.Stats.PrefixSize)
	}
	over, err := s.MIS(ctx, g, greedy.WithPrefixSize(65))
	if err != nil {
		t.Fatal(err)
	}
	if over.Stats.PrefixSize != 65 {
		t.Errorf("per-call override not applied: %d", over.Stats.PrefixSize)
	}
	if !res.Equal(over) {
		t.Error("prefix size changed the selected set")
	}
}

// TestSolverEngineOptionsReachEveryProblem checks that every facade
// knob of the speculative engine — prefix size, prefix fraction,
// adaptive window, round observers and phase profiling — reaches the
// engine run of each of the five problems under AlgoPrefix, measured
// over that problem's own item count.
func TestSolverEngineOptionsReachEveryProblem(t *testing.T) {
	ctx := context.Background()
	g := greedy.RandomGraph(3_000, 15_000, 23)
	el := g.EdgeList()
	sets := make([][]int32, 0, 1_200)
	for i := 0; i < 1_200; i++ {
		sets = append(sets, []int32{int32(i), int32(3*i+1) % 2_500, int32(11*i+7) % 2_500})
	}
	sys, err := greedy.NewSystem(2_500, sets)
	if err != nil {
		t.Fatal(err)
	}
	problems := []struct {
		name  string
		items int
		run   func(s *greedy.Solver, opts ...greedy.Option) (greedy.Stats, error)
	}{
		{"mis", g.NumVertices(), func(s *greedy.Solver, opts ...greedy.Option) (greedy.Stats, error) {
			r, err := s.MIS(ctx, g, opts...)
			if err != nil {
				return greedy.Stats{}, err
			}
			return r.Stats, nil
		}},
		{"mm", el.NumEdges(), func(s *greedy.Solver, opts ...greedy.Option) (greedy.Stats, error) {
			r, err := s.MM(ctx, el, opts...)
			if err != nil {
				return greedy.Stats{}, err
			}
			return r.Stats, nil
		}},
		{"sf", el.NumEdges(), func(s *greedy.Solver, opts ...greedy.Option) (greedy.Stats, error) {
			r, err := s.SF(ctx, el, opts...)
			if err != nil {
				return greedy.Stats{}, err
			}
			return r.Stats, nil
		}},
		{"coloring", g.NumVertices(), func(s *greedy.Solver, opts ...greedy.Option) (greedy.Stats, error) {
			r, err := s.Coloring(ctx, g, opts...)
			if err != nil {
				return greedy.Stats{}, err
			}
			return r.Stats, nil
		}},
		{"hittingset", sys.NumElements(), func(s *greedy.Solver, opts ...greedy.Option) (greedy.Stats, error) {
			r, err := s.HittingSet(ctx, sys, opts...)
			if err != nil {
				return greedy.Stats{}, err
			}
			return r.Stats, nil
		}},
	}
	for _, p := range problems {
		t.Run(p.name, func(t *testing.T) {
			// observe runs the problem under opts on a fresh prefix
			// Solver and returns its counters and every round report.
			observe := func(opts ...greedy.Option) (greedy.Stats, []greedy.RoundInfo) {
				t.Helper()
				var rounds []greedy.RoundInfo
				opts = append(opts, greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
					rounds = append(rounds, ri)
				}))
				st, err := p.run(greedy.NewSolver(greedy.WithAlgorithm(greedy.AlgoPrefix)), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(rounds)) != st.Rounds {
					t.Fatalf("observer saw %d rounds, Stats.Rounds = %d", len(rounds), st.Rounds)
				}
				var attempted int64
				for _, ri := range rounds {
					attempted += int64(ri.Attempted)
				}
				if attempted != st.Attempts {
					t.Fatalf("observer Attempted sums to %d, Stats.Attempts = %d", attempted, st.Attempts)
				}
				return st, rounds
			}
			fixedWindow := func(name string, want int, opts ...greedy.Option) {
				t.Helper()
				st, rounds := observe(opts...)
				if st.PrefixSize != want {
					t.Errorf("%s: Stats.PrefixSize = %d, want %d", name, st.PrefixSize, want)
				}
				for _, ri := range rounds {
					if ri.PrefixSize != want {
						t.Fatalf("%s: round %d window %d, want %d", name, ri.Round, ri.PrefixSize, want)
					}
				}
			}

			fixedWindow("WithPrefixSize(37)", 37, greedy.WithPrefixSize(37))
			// ⌈0.0123·items⌉ in exact integer arithmetic.
			fixedWindow("WithPrefixFrac(0.0123)", (123*p.items+9_999)/10_000, greedy.WithPrefixFrac(0.0123))

			_, rounds := observe(greedy.WithAdaptivePrefix())
			changed := false
			for _, ri := range rounds[1:] {
				if ri.PrefixSize != rounds[0].PrefixSize {
					changed = true
				}
			}
			if !changed {
				t.Errorf("WithAdaptivePrefix: window stayed at %d for all %d rounds", rounds[0].PrefixSize, len(rounds))
			}

			_, rounds = observe(greedy.WithPhaseProfile())
			var phaseNS int64
			for _, ri := range rounds {
				phaseNS += ri.CheckNS + ri.CommitNS + ri.SlideNS
			}
			if phaseNS <= 0 {
				t.Errorf("WithPhaseProfile: phase times sum to %d ns, want > 0", phaseNS)
			}
			_, rounds = observe()
			for _, ri := range rounds {
				if ri.CheckNS != 0 || ri.CommitNS != 0 || ri.ResetNS != 0 || ri.SlideNS != 0 {
					t.Fatalf("round %d without WithPhaseProfile reports phase times %+v", ri.Round, ri)
				}
			}
		})
	}
}

// TestSolverRoundsAllocateNothing pins "no per-round allocation at any
// GOMAXPROCS": a warm Solver's MIS, MM and hitting set allocate the
// same number of objects in about 20 rounds (a 5% window) as in about
// 200 (the default 0.5% window), and at most 48, at GOMAXPROCS 1 and
// 2. Every window here spans more than one grain, so at GOMAXPROCS=2
// both runs start the engine's helpers.
func TestSolverRoundsAllocateNothing(t *testing.T) {
	in := greedy.GraphInput(greedy.RandomGraph(1<<16, 5<<15, 13))
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(3))
	windows := []struct {
		opt    greedy.Option
		rounds int64
	}{{greedy.WithPrefixFrac(0.05), 20}, {greedy.WithPrefixFrac(0.005), 200}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, p := range []greedy.Problem{greedy.ProblemMIS, greedy.ProblemMM, greedy.ProblemHittingSet} {
			name := fmt.Sprintf("GOMAXPROCS=%d %s", procs, p)
			call := func(opt greedy.Option) greedy.Stats {
				a, err := s.Solve(ctx, p, in, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return a.Stats
			}
			for _, w := range windows { // also warms the Solver's caches
				if st := call(w.opt); st.Rounds < w.rounds || st.Rounds > 2*w.rounds {
					t.Fatalf("%s: %d rounds, want about %d", name, st.Rounds, w.rounds)
				}
			}
			// Only the runtime allocates sporadically here: goroutine
			// records while its free lists refill after a GOMAXPROCS
			// change, a wait record when a helper parks or the caller
			// blocks. So each window keeps the least of five
			// interleaved batches of five calls.
			least := [2]uint64{math.MaxUint64, math.MaxUint64}
			for batch := 0; batch < 5; batch++ {
				for i, w := range windows {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for c := 0; c < 5; c++ {
						call(w.opt)
					}
					runtime.ReadMemStats(&after)
					least[i] = min(least[i], (after.Mallocs-before.Mallocs)/5)
				}
			}
			if least[0] != least[1] || least[1] > 48 {
				t.Errorf("%s: %d allocations per solve in about 20 rounds, %d in about 200; want equal and at most 48", name, least[0], least[1])
			}
			t.Logf("%s: %d allocations per warm solve", name, least[1])
		}
	}
}

// TestRootSetAllocatesOnlyTheResult pins what a warm root-set MIS or
// MM allocates per solve: the result, the per-call layout (the child
// lists, or the incidence of the gathered edges) and the team, not
// anything per step. The Solver is warmed at two processors and then
// solves at one as well, where a single chunk spans every frontier and
// the step slots the two-processor runs filled are stale; both counts
// must report the same Stats and checksum. Allocations are counted as
// in TestSolverRoundsAllocateNothing, the least of five batches of
// five solves, for the runtime's sporadic allocations it describes.
func TestRootSetAllocatesOnlyTheResult(t *testing.T) {
	in := greedy.GraphInput(greedy.RandomGraph(1<<16, 5<<15, 13))
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(3), greedy.WithAlgorithm(greedy.AlgoRootSet))
	first := map[greedy.Problem]greedy.Answer{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 1} {
		runtime.GOMAXPROCS(procs)
		for _, p := range []greedy.Problem{greedy.ProblemMIS, greedy.ProblemMM} {
			name := fmt.Sprintf("GOMAXPROCS=%d %s", procs, p)
			call := func() greedy.Answer {
				a, err := s.Solve(ctx, p, in)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return a
			}
			a := call() // also warms the Solver's caches
			if w, ok := first[p]; !ok {
				first[p] = a
			} else if a.Stats != w.Stats || a.Checksum() != w.Checksum() {
				t.Errorf("%s: %v, checksum %s; GOMAXPROCS=2: %v, checksum %s", name, a.Stats, a.Checksum(), w.Stats, w.Checksum())
			}
			least := uint64(math.MaxUint64)
			for batch := 0; batch < 5; batch++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for c := 0; c < 5; c++ {
					call()
				}
				runtime.ReadMemStats(&after)
				least = min(least, (after.Mallocs-before.Mallocs)/5)
			}
			if least > 48 {
				t.Errorf("%s: %d allocations per warm root-set solve in %d steps, want at most 48", name, least, a.Stats.Rounds)
			}
			t.Logf("%s: %d allocations per warm solve", name, least)
		}
	}
}

// BenchmarkSolverMISReused vs BenchmarkSolverMISFresh quantify the
// workspace win the Solver API exists for: the reused variant allocates
// only the returned Result, the fresh variant pays the full set of
// per-run arrays (status, frontier, outcome, priority order) each time.
func BenchmarkSolverMISReused(b *testing.B) {
	g := greedy.RandomGraph(100_000, 500_000, 42)
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(7))
	if _, err := s.MIS(ctx, g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MIS(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverHittingSetReused(b *testing.B) {
	sys := greedy.HittingSystemFromEdges(greedy.RandomGraph(100_000, 500_000, 42).EdgeList())
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(7))
	if _, err := s.HittingSet(ctx, sys); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.HittingSet(ctx, sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverMISFresh(b *testing.B) {
	g := greedy.RandomGraph(100_000, 500_000, 42)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedy.NewSolver(greedy.WithSeed(7)).MIS(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverMMReused(b *testing.B) {
	g := greedy.RandomGraph(100_000, 500_000, 42)
	el := g.EdgeList()
	ctx := context.Background()
	s := greedy.NewSolver(greedy.WithSeed(7))
	if _, err := s.MM(ctx, el); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MM(ctx, el); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverMMFresh(b *testing.B) {
	g := greedy.RandomGraph(100_000, 500_000, 42)
	el := g.EdgeList()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedy.NewSolver(greedy.WithSeed(7)).MM(ctx, el); err != nil {
			b.Fatal(err)
		}
	}
}
