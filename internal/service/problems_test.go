package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	greedy "repro"
)

// TestColoringAndHittingSetJobs runs the two engine-opened problems
// end-to-end through the job engine and checks the served answer
// against the library computed directly on an identical graph.
func TestColoringAndHittingSetJobs(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	info := addGraph(t, svc, 1500, 4)
	g := greedy.RandomGraph(1500, 6000, 4)

	for _, algo := range []greedy.Algorithm{greedy.AlgoPrefix, greedy.AlgoSequential} {
		st, _, err := svc.Engine().Submit(JobSpec{
			GraphID: info.ID, Problem: ProblemColoring,
			Plan: greedy.Plan{Algorithm: algo, Seed: 11},
		})
		if err != nil {
			t.Fatalf("coloring/%s: %v", algo, err)
		}
		if got := waitDone(t, svc.Engine(), st.ID); got.State != StateDone {
			t.Fatalf("coloring/%s failed: %s", algo, got.Error)
		}
		raw, _, err := svc.Engine().Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := greedy.GreedyColoring(g, greedy.WithAlgorithm(algo), greedy.WithSeed(11))
		if err := greedy.VerifyColoring(g, want.Colors); err != nil {
			t.Fatalf("library coloring invalid: %v", err)
		}
		if sum := (greedy.Answer{Colors: want.Colors}).Checksum(); !bytes.Contains(raw, []byte(sum)) {
			t.Fatalf("coloring/%s: checksum %s not in payload %s", algo, sum, raw)
		}

		st, _, err = svc.Engine().Submit(JobSpec{
			GraphID: info.ID, Problem: ProblemHittingSet,
			Plan: greedy.Plan{Algorithm: algo, Seed: 11},
		})
		if err != nil {
			t.Fatalf("hittingset/%s: %v", algo, err)
		}
		if got := waitDone(t, svc.Engine(), st.ID); got.State != StateDone {
			t.Fatalf("hittingset/%s failed: %s", algo, got.Error)
		}
		raw, _, err = svc.Engine().Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		sys := greedy.HittingSystemFromEdges(g.EdgeList())
		wantHS := greedy.GreedyHittingSet(sys, greedy.WithAlgorithm(algo), greedy.WithSeed(11))
		if err := greedy.VerifyHittingSet(sys, wantHS.InSet); err != nil {
			t.Fatalf("library hitting set invalid: %v", err)
		}
		if sum := (greedy.Answer{In: wantHS.InSet}).Checksum(); !bytes.Contains(raw, []byte(sum)) {
			t.Fatalf("hittingset/%s: checksum %s not in payload %s", algo, sum, raw)
		}
	}
}

// TestNewProblemsDedupDistinctKeys: the same plan on the same graph
// must dedup within a problem but never across problems.
func TestNewProblemsDedupDistinctKeys(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	info := addGraph(t, svc, 600, 2)
	plan := greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 3}

	ids := map[Problem]string{}
	for _, p := range []Problem{ProblemMIS, ProblemColoring, ProblemHittingSet} {
		st, deduped, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: p, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if deduped {
			t.Fatalf("%s deduped onto another problem's job", p)
		}
		ids[p] = st.ID
		waitDone(t, svc.Engine(), st.ID)

		st2, deduped, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: p, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if !deduped || st2.ID != st.ID {
			t.Fatalf("%s resubmission not deduplicated", p)
		}
	}
	if ids[ProblemColoring] == ids[ProblemMIS] || ids[ProblemHittingSet] == ids[ProblemMIS] || ids[ProblemColoring] == ids[ProblemHittingSet] {
		t.Fatalf("distinct problems shared a job id: %v", ids)
	}
}

// TestValidationErrorsTable drives every JobSpec.Validate rejection
// through one table: each row is an invalid spec plus a fragment its
// error must contain. A row whose plan survives a JSON round-trip also
// proves the rejected configuration is expressible on the wire — the
// service can never be handed a plan it silently mis-runs.
func TestValidationErrorsTable(t *testing.T) {
	cases := []struct {
		name     string
		spec     JobSpec
		wantFrag string
		wire     bool // plan representable in JSON (ExplicitOrder is not)
	}{
		{"unknown problem", JobSpec{GraphID: "g0", Problem: "clique", Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix}},
			"unknown problem", true},
		{"explicit order", JobSpec{GraphID: "g0", Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, ExplicitOrder: true}},
			"explicit orders", false},
		{"luby on mm", JobSpec{GraphID: "g0", Problem: ProblemMM, Plan: greedy.Plan{Algorithm: greedy.AlgoLuby}},
			"applies to MIS only", true},
		{"luby on coloring", JobSpec{GraphID: "g0", Problem: ProblemColoring, Plan: greedy.Plan{Algorithm: greedy.AlgoLuby}},
			"applies to MIS only", true},
		{"sf rootset", JobSpec{GraphID: "g0", Problem: ProblemSF, Plan: greedy.Plan{Algorithm: greedy.AlgoRootSet}},
			"prefix|sequential", true},
		{"coloring rootset", JobSpec{GraphID: "g0", Problem: ProblemColoring, Plan: greedy.Plan{Algorithm: greedy.AlgoRootSet}},
			"prefix|sequential", true},
		{"coloring parallel", JobSpec{GraphID: "g0", Problem: ProblemColoring, Plan: greedy.Plan{Algorithm: greedy.AlgoParallel}},
			"prefix|sequential", true},
		{"hittingset rootset", JobSpec{GraphID: "g0", Problem: ProblemHittingSet, Plan: greedy.Plan{Algorithm: greedy.AlgoRootSet}},
			"prefix|sequential", true},
		{"hittingset parallel", JobSpec{GraphID: "g0", Problem: ProblemHittingSet, Plan: greedy.Plan{Algorithm: greedy.AlgoParallel}},
			"prefix|sequential", true},
		{"adaptive non-prefix", JobSpec{GraphID: "g0", Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoSequential, AdaptivePrefix: true}},
			"adaptive prefix applies", true},
		{"dynamic sf", JobSpec{GraphID: "g0", Problem: ProblemSF, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Dynamic: true}},
			"dynamic plans support problems mis|mm", true},
		{"dynamic coloring", JobSpec{GraphID: "g0", Problem: ProblemColoring, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Dynamic: true}},
			"dynamic plans support problems mis|mm", true},
		{"dynamic hittingset", JobSpec{GraphID: "g0", Problem: ProblemHittingSet, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Dynamic: true}},
			"dynamic plans support problems mis|mm", true},
		{"dynamic luby", JobSpec{GraphID: "g0", Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoLuby, Dynamic: true}},
			"dynamic plans cannot use", true},
		{"prefix_frac high", JobSpec{GraphID: "g0", Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, PrefixFrac: 1.5}},
			"outside [0,1]", true},
		{"prefix_frac negative", JobSpec{GraphID: "g0", Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, PrefixFrac: -0.1}},
			"outside [0,1]", true},
		{"prefix_size negative", JobSpec{GraphID: "g0", Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, PrefixSize: -3}},
			"negative prefix_size", true},
		{"grain negative", JobSpec{GraphID: "g0", Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Grain: -1}},
			"negative grain", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("spec accepted: %+v", c.spec)
			}
			if !strings.Contains(err.Error(), c.wantFrag) {
				t.Fatalf("error %q does not contain %q", err, c.wantFrag)
			}
			if !c.wire {
				return
			}
			// The invalid plan must survive the wire unchanged, so the
			// HTTP layer rejects it with the same message rather than
			// decoding it into something Validate would accept.
			raw, merr := json.Marshal(c.spec.Plan)
			if merr != nil {
				t.Fatal(merr)
			}
			var back greedy.Plan
			if uerr := json.Unmarshal(raw, &back); uerr != nil {
				t.Fatalf("plan does not round-trip: %v", uerr)
			}
			if back != c.spec.Plan {
				t.Fatalf("round-trip changed plan: %+v vs %+v", back, c.spec.Plan)
			}
			spec2 := c.spec
			spec2.Plan = back
			if err2 := spec2.Validate(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("round-tripped spec validates differently: %v vs %v", err2, err)
			}
		})
	}
}

// TestProblemWireNames pins the wire names of all five problems — the
// strings clients put in the "problem" field of POST /v1/jobs.
func TestProblemWireNames(t *testing.T) {
	for _, want := range []string{"mis", "mm", "sf", "coloring", "hittingset"} {
		if p, err := ParseProblem(want); err != nil || string(p) != want {
			t.Fatalf("ParseProblem(%q) = %v, %v", want, p, err)
		}
	}
	if _, err := ParseProblem("setcover"); err == nil {
		t.Fatal("ParseProblem accepted an unknown name")
	}
}

// TestValidateAgreesWithSolver enumerates the facade's problem table
// against every algorithm, adaptive or not, dynamic or not (100 plans):
// admission (JobSpec.Validate) and execution (Solver.Solve) must accept
// or reject each plan together, and a rejection must wrap the same
// facade sentinel on both sides, so the service never admits a job its
// worker must fail, nor refuses one the library runs.
func TestValidateAgreesWithSolver(t *testing.T) {
	in := greedy.GraphInput(greedy.RandomGraph(50, 150, 3))
	solver := greedy.NewSolver()
	sentinels := []error{greedy.ErrLubyMatching, greedy.ErrSpanningAlgorithm, greedy.ErrColoringAlgorithm,
		greedy.ErrHittingSetAlgorithm, greedy.ErrAdaptiveAlgorithm, greedy.ErrDynamicUnsupported}
	algos := []greedy.Algorithm{greedy.AlgoPrefix, greedy.AlgoSequential, greedy.AlgoRootSet, greedy.AlgoParallel, greedy.AlgoLuby}
	plans, rejected := 0, 0
	for _, p := range greedy.Problems() {
		for _, algo := range algos {
			for _, adaptive := range []bool{false, true} {
				for _, dynamic := range []bool{false, true} {
					plans++
					plan := greedy.Plan{Algorithm: algo, Seed: 5, AdaptivePrefix: adaptive, Dynamic: dynamic}
					verr := JobSpec{GraphID: "g", Problem: p, Plan: plan}.Validate()
					_, serr := solver.Solve(context.Background(), p, in, plan.Options()...)
					if (verr == nil) != (serr == nil) {
						t.Errorf("%s %+v: Validate says %v, Solve says %v", p, plan, verr, serr)
						continue
					}
					if verr == nil {
						continue
					}
					rejected++
					wrapped := 0
					for _, s := range sentinels {
						if errors.Is(verr, s) != errors.Is(serr, s) {
							t.Errorf("%s %+v: Validate (%v) and Solve (%v) disagree on %v", p, plan, verr, serr, s)
						}
						if errors.Is(verr, s) {
							wrapped++
						}
					}
					if wrapped == 0 {
						t.Errorf("%s %+v: rejection %v wraps no facade sentinel", p, plan, verr)
					}
				}
			}
		}
	}
	if plans != 100 || rejected == 0 || rejected == plans {
		t.Fatalf("enumerated %d plans, %d rejected; want 100 with both outcomes", plans, rejected)
	}
}
