package service

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	greedy "repro"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func addGraph(t *testing.T, svc *Service, n int, seed uint64) GraphInfo {
	t.Helper()
	info, _, err := svc.Generate(GenSpec{Generator: "random", N: n, M: 4 * n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func waitDone(t *testing.T, e *Engine, id string) JobStatus {
	t.Helper()
	var st JobStatus
	waitFor(t, 30*time.Second, "job "+id+" to finish", func() bool {
		var err error
		if st, err = e.Status(id); err != nil {
			t.Fatal(err)
		}
		return st.State == StateDone || st.State == StateFailed
	})
	return st
}

func TestJobDedupSingleExecution(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	info := addGraph(t, svc, 2000, 1)
	spec := JobSpec{GraphID: info.ID, Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 7}}

	// Concurrent duplicate submissions must collapse onto one job.
	const submitters = 16
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := svc.Engine().Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("duplicate submissions produced distinct jobs: %v", ids)
		}
	}
	waitDone(t, svc.Engine(), ids[0])

	// Late duplicate after completion still dedups onto the done job.
	st, deduped, err := svc.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || st.ID != ids[0] {
		t.Fatalf("post-completion submission not deduplicated (id=%s deduped=%v)", st.ID, deduped)
	}

	snap := svc.Snapshot()
	if snap.Jobs.Executed != 1 {
		t.Fatalf("expected exactly 1 execution, got %d", snap.Jobs.Executed)
	}
	if snap.Jobs.DedupHits != submitters {
		t.Fatalf("expected %d dedup hits, got %d", submitters, snap.Jobs.DedupHits)
	}
}

func TestJobResultsByteIdenticalAndCorrect(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	info := addGraph(t, svc, 2000, 1)
	spec := JobSpec{GraphID: info.ID, Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 7}}

	st1, _, err := svc.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc.Engine(), st1.ID)
	raw1, _, err := svc.Engine().Result(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := svc.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw2, _, err := svc.Engine().Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("duplicate submissions returned different result bytes")
	}

	// The service's answer must be the library's lexicographically-first
	// MIS for the same (graph, seed).
	g := greedy.RandomGraph(2000, 8000, 1)
	want, err := greedy.NewSolver().MIS(context.Background(), g, greedy.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := (greedy.Answer{In: want.InSet}).Checksum(); !bytes.Contains(raw1, []byte(got)) {
		t.Fatalf("service checksum does not match library result (%s not in payload)", got)
	}
}

func TestJobAlgorithmsAcrossProblems(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	info := addGraph(t, svc, 1000, 3)
	cases := []struct {
		problem Problem
		algo    greedy.Algorithm
	}{
		{ProblemMIS, greedy.AlgoPrefix},
		{ProblemMIS, greedy.AlgoSequential},
		{ProblemMIS, greedy.AlgoRootSet},
		{ProblemMIS, greedy.AlgoParallel},
		{ProblemMIS, greedy.AlgoLuby},
		{ProblemMM, greedy.AlgoPrefix},
		{ProblemMM, greedy.AlgoSequential},
		{ProblemMM, greedy.AlgoRootSet},
		{ProblemSF, greedy.AlgoPrefix},
		{ProblemSF, greedy.AlgoSequential},
	}
	for _, c := range cases {
		st, _, err := svc.Engine().Submit(JobSpec{
			GraphID: info.ID, Problem: c.problem, Plan: greedy.Plan{Algorithm: c.algo, Seed: 11},
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.problem, c.algo, err)
		}
		if got := waitDone(t, svc.Engine(), st.ID); got.State != StateDone {
			t.Fatalf("%s/%s failed: %s", c.problem, c.algo, got.Error)
		}
	}
	// The deterministic MIS algorithms agree; Luby need not.
	checksums := map[string]string{}
	for _, c := range cases {
		st, _, _ := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: c.problem, Plan: greedy.Plan{Algorithm: c.algo, Seed: 11}})
		raw, _, err := svc.Engine().Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		checksums[string(c.problem)+"/"+c.algo.String()] = string(raw)
	}
	for _, pair := range [][2]string{
		{"mis/prefix", "mis/sequential"},
		{"mis/prefix", "mis/rootset"},
		{"mis/prefix", "mis/parallel"},
		{"mm/prefix", "mm/sequential"},
		{"mm/prefix", "mm/rootset"},
	} {
		a, b := checksums[pair[0]], checksums[pair[1]]
		// Result payloads differ in algorithm name and stats; compare the
		// membership checksum field.
		ca, cb := extractChecksum(t, a), extractChecksum(t, b)
		if ca != cb {
			t.Errorf("%s and %s disagree: %s vs %s", pair[0], pair[1], ca, cb)
		}
	}
}

func extractChecksum(t *testing.T, payload string) string {
	t.Helper()
	const key = `"checksum":"`
	i := bytes.Index([]byte(payload), []byte(key))
	if i < 0 {
		t.Fatalf("no checksum in payload %q", payload)
	}
	rest := payload[i+len(key):]
	j := bytes.IndexByte([]byte(rest), '"')
	return rest[:j]
}

func TestJobValidation(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	info := addGraph(t, svc, 500, 1)

	if _, _, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: "nope", Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix}}); err == nil {
		t.Error("bad problem accepted")
	}
	if _, _, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: ProblemMM, Plan: greedy.Plan{Algorithm: greedy.AlgoLuby}}); err == nil {
		t.Error("luby matching accepted")
	}
	if _, _, err := svc.Engine().Submit(JobSpec{GraphID: "gdeadbeef", Problem: ProblemMIS}); err == nil {
		t.Error("unknown graph accepted")
	}
	if _, _, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: ProblemMIS, Plan: greedy.Plan{PrefixFrac: 1.5}}); err == nil {
		t.Error("out-of-range prefix accepted")
	}
	// SF implements only prefix and sequential; other names would run
	// prefix while reporting the requested algorithm.
	if _, _, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: ProblemSF, Plan: greedy.Plan{Algorithm: greedy.AlgoRootSet}}); err == nil {
		t.Error("sf/rootset accepted")
	}
	if _, _, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: ProblemSF, Plan: greedy.Plan{Algorithm: greedy.AlgoParallel}}); err == nil {
		t.Error("sf/parallel accepted")
	}
}

func TestGenerateRejectsImpossibleEdgeCounts(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	// n=3 admits at most 3 edges; pre-guard this panicked in the
	// generator instead of failing the request.
	if _, _, err := svc.Generate(GenSpec{Generator: "random", N: 3, M: 100}); err == nil {
		t.Error("impossible random edge count accepted")
	}
	if _, _, err := svc.Generate(GenSpec{Generator: "rmat", N: 4, M: 100}); err == nil {
		t.Error("impossible rmat edge count accepted")
	}
}

func TestJobTTLReaping(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, ResultTTL: 50 * time.Millisecond})
	info := addGraph(t, svc, 500, 1)
	st, _, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc.Engine(), st.ID)

	waitFor(t, 5*time.Second, "finished job to be reaped past TTL", func() bool {
		_, err := svc.Engine().Status(st.ID)
		return err != nil // reaped
	})
	// The key is free again: a resubmission starts a fresh execution.
	st2, deduped, err := svc.Engine().Submit(JobSpec{GraphID: info.ID, Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if deduped || st2.ID == st.ID {
		t.Fatalf("reaped job still a dedup target (id=%s deduped=%v)", st2.ID, deduped)
	}
	waitDone(t, svc.Engine(), st2.ID)
}

// TestJobsPinGraphAgainstEviction floods a tightly-budgeted registry
// while jobs run on a hot graph; no job may fail with a missing graph.
// Run with -race.
func TestJobsPinGraphAgainstEviction(t *testing.T) {
	g := addGraphSized(t)
	svc := newTestService(t, Config{Workers: 2, CacheBytes: 3 * g})
	info := addGraph(t, svc, 2000, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Evictor: churn fresh graphs through the registry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := uint64(100)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seed++
			if _, _, err := svc.Generate(GenSpec{Generator: "random", N: 2000, M: 8000, Seed: seed}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 30; i++ {
		st, _, err := svc.Engine().Submit(JobSpec{
			GraphID: info.ID, Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: uint64(i)},
		})
		if err != nil {
			// The hot graph may have been evicted between jobs (it is
			// unpinned while idle); re-add and retry.
			info = addGraph(t, svc, 2000, 1)
			st, _, err = svc.Engine().Submit(JobSpec{
				GraphID: info.ID, Problem: ProblemMIS, Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: uint64(i)},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := waitDone(t, svc.Engine(), st.ID); got.State != StateDone {
			t.Fatalf("job %d failed: %s", i, got.Error)
		}
	}
	close(stop)
	wg.Wait()
}

func addGraphSized(t *testing.T) int64 {
	t.Helper()
	r := NewRegistry(0, nil)
	info, _, err := r.Add(testGraph(t, 2000, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	return info.Bytes
}
