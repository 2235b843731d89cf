package greedy

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestMISDynamicSession drives a session through updates and checks
// agreement with from-scratch Solver.MIS runs on the mutated graph.
func TestMISDynamicSession(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(2000, 8000, 3)
	solver := NewSolver(WithSeed(11))
	sess, err := solver.MISDynamic(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		cur := sess.Graph()
		want, err := solver.MIS(ctx, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !sess.Result().Equal(want) {
			t.Fatal("session MIS differs from from-scratch Solver.MIS on the current graph")
		}
	}
	check()
	batches := [][]DynamicUpdate{
		{{Op: OpAdd, U: 0, V: 1999}},
		{{Op: OpDel, U: 0, V: 1999}, {Op: OpAdd, U: 5, V: 6}},
	}
	for _, b := range batches {
		// The generated graph may already contain an edge we want to
		// add; skip those updates to keep batches valid.
		valid := b[:0]
		for _, up := range b {
			if up.Op == OpAdd && sess.Graph().HasEdge(up.U, up.V) {
				continue
			}
			if up.Op == OpDel && !sess.Graph().HasEdge(up.U, up.V) {
				continue
			}
			valid = append(valid, up)
		}
		if len(valid) == 0 {
			continue
		}
		if _, err := sess.Apply(ctx, valid); err != nil {
			t.Fatal(err)
		}
		check()
	}
	if sess.NumVertices() != 2000 {
		t.Fatalf("NumVertices = %d", sess.NumVertices())
	}
	if sess.InitStats().Rounds == 0 {
		t.Fatal("InitStats empty")
	}
}

// TestMMDynamicSession checks the matching session against one-shot
// WithDynamic runs — the equivalence the service's
// repair-or-recompute interchangeability rests on.
func TestMMDynamicSession(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(1000, 4000, 9)
	solver := NewSolver(WithSeed(4))
	sess, err := solver.MMDynamic(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		cur := sess.Graph()
		want, err := solver.MM(ctx, cur.EdgeList(), WithDynamic())
		if err != nil {
			t.Fatal(err)
		}
		got := sess.Pairs()
		if len(got) != len(want.Pairs) {
			t.Fatalf("session matching has %d pairs, from-scratch dynamic MM has %d", len(got), len(want.Pairs))
		}
		for i := range got {
			if got[i] != want.Pairs[i] {
				t.Fatalf("pair %d: session %v vs from-scratch %v", i, got[i], want.Pairs[i])
			}
		}
	}
	check()
	if !sess.Graph().HasEdge(0, 999) {
		if _, err := sess.Apply(ctx, []DynamicUpdate{{Op: OpAdd, U: 0, V: 999}}); err != nil {
			t.Fatal(err)
		}
		check()
	}
	// Delete a matched edge: forces real repair work.
	pairs := sess.Pairs()
	if len(pairs) == 0 {
		t.Fatal("empty matching on a dense random graph")
	}
	e := pairs[len(pairs)/2]
	st, err := sess.Apply(ctx, []DynamicUpdate{{Op: OpDel, U: e.U, V: e.V}})
	if err != nil {
		t.Fatal(err)
	}
	if st.MM.Seeds == 0 {
		t.Fatal("deleting a matched edge produced no repair seeds")
	}
	check()
}

// TestDynamicRejectsStaticProblems checks that Solver.Dynamic reads
// the problem table: problems without a churn-stable variant are
// ErrDynamicUnsupported, and an unknown problem is an error.
func TestDynamicRejectsStaticProblems(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(200, 600, 1)
	solver := NewSolver()
	for _, p := range []Problem{ProblemSF, ProblemColoring, ProblemHittingSet} {
		if _, err := solver.Dynamic(ctx, p, g); !errors.Is(err, ErrDynamicUnsupported) {
			t.Errorf("Dynamic(%s): got %v, want ErrDynamicUnsupported", p, err)
		}
	}
	if _, err := solver.Dynamic(ctx, Problem("nope"), g); err == nil {
		t.Error("Dynamic accepted an unknown problem")
	}
}

// TestDynamicSessionAnswerMatchesSolve drives an MIS and an MM session
// through several batches and checks each Answer against a fresh
// sequential WithDynamic Solve on the current graph.
func TestDynamicSessionAnswerMatchesSolve(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(1500, 6000, 5)
	solver := NewSolver(WithSeed(8))
	for _, p := range []Problem{ProblemMIS, ProblemMM} {
		sess, err := solver.Dynamic(ctx, p, g)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			// Delete a few present edges and insert as many absent ones.
			cur := sess.Graph()
			var batch []DynamicUpdate
			for _, e := range cur.Edges()[step*7 : step*7+3] {
				batch = append(batch, DynamicUpdate{Op: OpDel, U: e.U, V: e.V})
			}
			for u := int32(step); len(batch) < 6; u += 11 {
				if v := u + 700; !cur.HasEdge(u, v) {
					batch = append(batch, DynamicUpdate{Op: OpAdd, U: u, V: v})
				}
			}
			st, err := sess.Apply(ctx, batch)
			if err != nil {
				t.Fatalf("%s step %d: %v", p, step, err)
			}
			if st.Added != 3 || st.Removed != 3 {
				t.Fatalf("%s step %d: applied %d+%d updates, want 3+3", p, step, st.Added, st.Removed)
			}
			got := sess.Answer()
			want, err := solver.Solve(ctx, p, GraphInput(sess.Graph()), WithDynamic(), WithAlgorithm(AlgoSequential))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Matches(want) || got.Size != want.Size {
				t.Fatalf("%s step %d: session answer differs from a sequential WithDynamic solve", p, step)
			}
		}
	}
}

// TestSessionAnswerMatchesComparesPairs checks that a maintained
// matching, which has pairs and no edge bits, is compared by its pairs:
// a matching that differs from the fresh one in one pair does not
// match.
func TestSessionAnswerMatchesComparesPairs(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(500, 2000, 3)
	solver := NewSolver(WithSeed(2))
	sess, err := solver.Dynamic(ctx, ProblemMM, g)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := solver.Solve(ctx, ProblemMM, GraphInput(g), WithDynamic())
	if err != nil {
		t.Fatal(err)
	}
	got := sess.Answer()
	if got.In != nil || !got.Matches(fresh) || !fresh.Matches(got) {
		t.Fatal("the maintained matching does not match the fresh one")
	}
	off := got
	off.Pairs = slices.Clone(got.Pairs)
	off.Pairs[len(off.Pairs)/2].V++
	if off.Matches(fresh) || fresh.Matches(off) {
		t.Fatal("a matching that differs in one pair matches the fresh one")
	}
}

// TestDynamicOptionOnSolver checks the one-shot WithDynamic semantics:
// a no-op for MIS selection, a different (hash-priority) matching for
// MM, and rejections for SF / Luby / explicit orders.
func TestDynamicOptionOnSolver(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(500, 2000, 2)
	solver := NewSolver(WithSeed(6))

	plain, err := solver.MIS(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := solver.MIS(ctx, g, WithDynamic())
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(dyn) {
		t.Fatal("WithDynamic changed the MIS (the vertex order is churn-stable already)")
	}

	el := g.EdgeList()
	mmDyn, err := solver.MM(ctx, el, WithDynamic())
	if err != nil {
		t.Fatal(err)
	}
	// Must equal the sequential matching under the exposed dynamic
	// order at any algorithm.
	seqDyn, err := solver.MM(ctx, el, WithDynamic(), WithAlgorithm(AlgoSequential))
	if err != nil {
		t.Fatal(err)
	}
	if !mmDyn.Equal(seqDyn) {
		t.Fatal("dynamic MM differs between prefix and sequential algorithms")
	}

	if _, err := solver.SF(ctx, el, WithDynamic()); !errors.Is(err, ErrDynamicUnsupported) {
		t.Fatalf("SF with WithDynamic: got %v, want ErrDynamicUnsupported", err)
	}
	if _, err := solver.MIS(ctx, g, WithDynamic(), WithAlgorithm(AlgoLuby)); !errors.Is(err, ErrDynamicUnsupported) {
		t.Fatalf("Luby with WithDynamic: got %v, want ErrDynamicUnsupported", err)
	}
	ord := NewRandomOrder(el.NumEdges(), 1)
	if _, err := solver.MM(ctx, el, WithDynamic(), WithOrder(ord)); !errors.Is(err, ErrDynamicUnsupported) {
		t.Fatalf("MM WithOrder+WithDynamic: got %v, want ErrDynamicUnsupported", err)
	}
	if _, err := solver.MMDynamic(ctx, g, WithOrder(ord)); !errors.Is(err, ErrDynamicUnsupported) {
		t.Fatalf("MMDynamic WithOrder: got %v, want ErrDynamicUnsupported", err)
	}
	if _, err := solver.MISDynamic(ctx, g, WithAlgorithm(AlgoLuby)); !errors.Is(err, ErrDynamicUnsupported) {
		t.Fatalf("MISDynamic Luby: got %v, want ErrDynamicUnsupported", err)
	}
}

// TestPlanDynamicRoundTrip checks the wire form of dynamic plans.
func TestPlanDynamicRoundTrip(t *testing.T) {
	p := ResolvePlan(WithDynamic(), WithSeed(3))
	if !p.Dynamic {
		t.Fatal("ResolvePlan dropped Dynamic")
	}
	raw, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := back.UnmarshalJSON(raw); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip changed plan: %+v vs %+v", back, p)
	}
	p2 := ResolvePlan(p.Options()...)
	if p2 != p {
		t.Fatalf("Options round trip changed plan: %+v vs %+v", p2, p)
	}
}

// An MIS session's first solve reads the Solver's cached parent lists
// when the Solver holds them for the session's (graph, seed); it must
// start from the same answer and counters as a session a fresh Solver
// opens, which builds its own.
func TestMISSessionOnWarmSolver(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(5_000, 25_000, 9)
	warm := NewSolver(WithSeed(4))
	if _, err := warm.MIS(ctx, g, WithAlgorithm(AlgoSequential)); err != nil {
		t.Fatal(err)
	}
	got, err := warm.MISDynamic(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSolver(WithSeed(4)).MISDynamic(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	a, b := got.Answer(), want.Answer()
	if !slices.Equal(a.In, b.In) || !slices.Equal(a.Members, b.Members) || got.InitStats() != want.InitStats() {
		t.Fatal("a session opened on a warm Solver differs from one opened on a fresh Solver")
	}
}
