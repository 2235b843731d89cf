package service

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	greedy "repro"
	"repro/internal/fault"
)

// stablePayload parses a job result and strips the per-execution
// fields (job id, wall time): what remains — checksum, membership,
// sizes — is the deterministic content two executions of the same
// (graph, problem, plan, seed) must agree on byte for byte.
func stablePayload(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	delete(m, "job_id")
	delete(m, "run_ms")
	return m
}

// quickSpec is a job spec that completes in well under a second, used
// where the test needs journaled work that is cheap to recompute.
func quickSpec(graphID string, seed uint64) JobSpec {
	return JobSpec{
		GraphID: graphID,
		Problem: ProblemMIS,
		Plan:    greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: seed},
	}
}

// TestServiceRestartRecoversAcknowledgedJobs is the in-process half of
// the durability story (the cross-process half, with a real SIGKILL,
// lives in cmd/greedyd's chaos test): jobs acknowledged before a drain
// that runs out of window are re-enqueued on the next boot under their
// original ids and recompute to the same bytes a never-interrupted
// service produces.
func TestServiceRestartRecoversAcknowledgedJobs(t *testing.T) {
	dir := t.TempDir()

	// Boot 1: a single worker wedged by a sleep failpoint on the long
	// job, with quick jobs acknowledged behind it. A one-chunk round
	// costs so little that the long job alone can finish while the
	// quick submits fsync, so the failpoint, not its size, keeps every
	// job unserved. Shutdown with a zero window cancels all of them
	// before any completes — crash-equivalent for the journal.
	if err := fault.ArmSpec("worker.run=sleep:2s*1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	svc1, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := svc1.Generate(GenSpec{Generator: "random", N: 300_000, M: 600_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := svc1.Generate(GenSpec{Generator: "random", N: 2_000, M: 8_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	longSpec := JobSpec{
		GraphID: big.ID,
		Problem: ProblemMIS,
		Plan:    greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 7, PrefixSize: 2},
	}
	longSt, _, err := svc1.Engine().Submit(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	quick := []JobSpec{quickSpec(small.ID, 10), quickSpec(small.ID, 11), quickSpec(small.ID, 12)}
	quickIDs := make([]string, len(quick))
	for i, spec := range quick {
		st, _, err := svc1.Engine().Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		quickIDs[i] = st.ID
	}
	svc1.Shutdown(0)

	// Boot 2 on the same directory: every acknowledged job comes back.
	svc2, err := New(Config{Workers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc2.Snapshot().Jobs.Recovered; got != 4 {
		t.Fatalf("recovered jobs = %d, want 4", got)
	}
	for _, id := range quickIDs {
		st := waitDone(t, svc2.Engine(), id)
		if st.State != StateDone {
			t.Fatalf("recovered job %s state = %s, want done", id, st.State)
		}
	}
	// The long job recomputes under its original id too; it is not
	// needed further, so a user cancel both frees the worker and closes
	// its journal debt (cancel outside a drain is a served outcome).
	if _, err := svc2.Engine().Cancel(longSt.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc2.Engine(), longSt.ID, StateCancelled)

	// Byte identity: a control service that never crashed computes the
	// same specs to the same bytes.
	control, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	if _, _, err := control.Generate(GenSpec{Generator: "random", N: 2_000, M: 8_000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for i, spec := range quick {
		st, _, err := control.Engine().Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, control.Engine(), st.ID)
		want, _, err := control.Engine().Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := svc2.Engine().Result(quickIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stablePayload(t, got), stablePayload(t, want)) {
			t.Fatalf("recovered result %d differs from control:\n got: %s\nwant: %s", i, got, want)
		}
	}

	// Boot 3: everything was served (Done or user-cancelled), so the
	// journal owes nothing.
	svc2.Shutdown(0)
	svc3, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if got := svc3.Snapshot().Jobs.Recovered; got != 0 {
		t.Fatalf("recovered jobs after clean completion = %d, want 0", got)
	}
}

// TestGraphDemotionAndColdLoad pushes the registry past its byte
// budget with persistence on: the cold graph is demoted to its blob
// (not evicted), stays addressable, and transparently reloads when a
// job needs it.
func TestGraphDemotionAndColdLoad(t *testing.T) {
	// Probe the resident size of the two graphs first so the budget can
	// be sized to hold exactly one of them.
	probe := newTestService(t, Config{})
	a, _, err := probe.Generate(GenSpec{Generator: "random", N: 50_000, M: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := probe.Generate(GenSpec{Generator: "random", N: 50_000, M: 200_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	svc := newTestService(t, Config{
		Workers:         2,
		DataDir:         t.TempDir(),
		CacheBytes:      a.Bytes + b.Bytes/2,
		IngestWatermark: -1, // isolate demotion from admission control
	})
	first, _, err := svc.Generate(GenSpec{Generator: "random", N: 50_000, M: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Generate(GenSpec{Generator: "random", N: 50_000, M: 200_000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	info, ok := svc.Registry().Get(first.ID)
	if !ok {
		t.Fatalf("graph %s evicted; want demoted but addressable", first.ID)
	}
	if info.Resident {
		t.Fatalf("graph %s still resident after budget overflow", first.ID)
	}
	snap := svc.Snapshot()
	if snap.Registry.ColdGraphs != 1 {
		t.Fatalf("cold graphs = %d, want 1", snap.Registry.ColdGraphs)
	}
	if snap.Persist.Demotions == 0 {
		t.Fatal("no demotions counted")
	}

	// A job against the cold graph reloads it from the blob store.
	st, _, err := svc.Engine().Submit(quickSpec(first.ID, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc.Engine(), st.ID); got.State != StateDone {
		t.Fatalf("job on demoted graph ended %s, want done", got.State)
	}
	if svc.Snapshot().Persist.ColdLoads == 0 {
		t.Fatal("no cold loads counted")
	}
}

// TestJobDeadlineExceeded covers per-job timeouts: the job ends in the
// terminal deadline_exceeded state, which is excluded from dedup so a
// retry actually recomputes. Its budget sits far below the job's run
// time: the cold prefix_size=2 MIS on this graph takes about 40 ms on
// a 2-vCPU Xeon VM.
func TestJobDeadlineExceeded(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	info, _, err := svc.Generate(GenSpec{Generator: "random", N: 300_000, M: 600_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		GraphID:   info.ID,
		Problem:   ProblemMIS,
		Plan:      greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 9, PrefixSize: 2},
		TimeoutMS: 5,
	}
	st, _, err := svc.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, svc.Engine(), st.ID, StateDeadline)
	if final.Error == "" {
		t.Fatal("deadline_exceeded job carries no error detail")
	}
	if raw, _, err := svc.Engine().Result(st.ID); err != nil {
		t.Fatal(err)
	} else if raw != nil {
		t.Fatal("deadline_exceeded job still exposes a result payload")
	}
	if got := svc.Snapshot().Jobs.DeadlineExceeded; got != 1 {
		t.Fatalf("deadline_exceeded counter = %d, want 1", got)
	}

	// The timed-out attempt must not satisfy an identical resubmission.
	st2, deduped, err := svc.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || st2.ID == st.ID {
		t.Fatalf("resubmission deduped onto deadline_exceeded job %s", st.ID)
	}
	if _, err := svc.Engine().Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullRetryAfter wedges the single worker with a sleep
// failpoint, fills the depth-1 queue behind it, and asserts overload
// is signalled as 429 with a Retry-After the client can obey.
func TestQueueFullRetryAfter(t *testing.T) {
	if err := fault.ArmSpec("worker.run=sleep:2s*2"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	srv, client := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gen, err := client.Generate(context.Background(), GenSpec{Generator: "random", N: 2_000, M: 8_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(seed uint64) *http.Response {
		body := `{"graph_id":"` + gen.ID + `","problem":"mis","plan":{"algorithm":"prefix","seed":` +
			strconv.FormatUint(seed, 10) + `}}`
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Two acks land (one wedged on the worker, one queued — the order
	// the worker wakes in does not matter for a depth-1 queue); the
	// third submission must be refused.
	for seed := uint64(20); seed < 22; seed++ {
		if resp := submit(seed); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d, want 202", seed, resp.StatusCode)
		}
	}
	resp := submit(22)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("429 Retry-After = %q, want integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	if got := clientSnapshot(t, client).Jobs.AdmissionRejected; got == 0 {
		t.Fatal("admission_rejected counter did not move")
	}
}

// TestIngestPausedReturns503 drives resident bytes past the watermark
// with a pinned (running) graph that can be neither demoted nor
// evicted, and asserts graph ingest is refused with 503 + Retry-After
// while job traffic keeps flowing.
func TestIngestPausedReturns503(t *testing.T) {
	probe := newTestService(t, Config{})
	g, _, err := probe.Generate(GenSpec{Generator: "random", N: 300_000, M: 600_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	if err := fault.ArmSpec("worker.run=sleep:3s*1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	srv, client := newTestServer(t, Config{
		Workers:         1,
		CacheBytes:      g.Bytes + g.Bytes/2,
		IngestWatermark: 0.5, // watermark below one graph's footprint
	})
	gen, err := client.Generate(context.Background(), GenSpec{Generator: "random", N: 300_000, M: 600_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the graph with a job wedged on the worker: Submit acquires
	// the pin synchronously, so by the time the 202 returns admission
	// control can neither demote nor evict the graph.
	body := `{"graph_id":"` + gen.ID + `","problem":"mis","plan":{"algorithm":"prefix","seed":3,"prefix_size":2}}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pin job: status %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/graphs", "application/json",
		strings.NewReader(`{"generator":"random","n":1000,"m":4000,"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest over watermark: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if snap := clientSnapshot(t, client); snap.Registry.IngestPausedRejections == 0 {
		t.Fatal("ingest_paused counter did not move")
	}
	// Job traffic is unaffected: status polls on the pinned job succeed.
	if _, err := client.Status(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
}

// clientSnapshot fetches /v1/metrics through the public client.
func clientSnapshot(t *testing.T, c *Client) Snapshot {
	t.Helper()
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
