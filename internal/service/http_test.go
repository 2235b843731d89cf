package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	greedy "repro"
	"repro/internal/graph"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Client) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, &Client{BaseURL: srv.URL}
}

func TestHTTPGraphGenerateRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	g1, err := c.Generate(ctx, GenSpec{Generator: "random", N: 1000, M: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g1.N != 1000 || g1.Deduped {
		t.Fatalf("bad first generate: %+v", g1)
	}
	g2, err := c.Generate(ctx, GenSpec{Generator: "random", N: 1000, M: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Deduped || g2.ID != g1.ID {
		t.Fatalf("regeneration not deduplicated: %+v vs %+v", g2, g1)
	}
	if _, err := c.Generate(ctx, GenSpec{Generator: "nope", N: 10, M: 10}); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestHTTPGraphUploadAllFormats(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	g := graph.Random(500, 2000, 9)

	var wantID string
	for i, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return graph.WriteAdjacency(b, g) },
		func(b *bytes.Buffer) error { return graph.WriteEdgeArray(b, g) },
		func(b *bytes.Buffer) error { return graph.WriteBinary(b, g) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Upload(ctx, &buf)
		if err != nil {
			t.Fatalf("format %d: %v", i, err)
		}
		if i == 0 {
			wantID = resp.ID
			if resp.Deduped {
				t.Fatalf("format %d: first upload deduped", i)
			}
		} else if resp.ID != wantID || !resp.Deduped {
			t.Fatalf("format %d: id %s (deduped=%v), want dedup onto %s — content addressing must be format-independent",
				i, resp.ID, resp.Deduped, wantID)
		}
	}

	// Garbage bodies are rejected with 400, not misparsed.
	for _, bad := range []string{"", "NotAGraphFormat 1 2 3", "AdjacencyGraphX\n1\n0\n0\n"} {
		if _, err := c.Upload(ctx, strings.NewReader(bad)); err == nil {
			t.Errorf("garbage upload %q accepted", bad)
		}
	}
}

func TestHTTPJobLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	gr, err := c.Generate(ctx, GenSpec{Generator: "rmat", N: 1 << 10, M: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, JobRequest{GraphID: gr.ID, Problem: "mm", Plan: greedy.Plan{Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	raw, done, err := c.Result(ctx, sub.ID)
	if err != nil || !done {
		t.Fatalf("result: done=%v err=%v", done, err)
	}
	var payload ResultPayload
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Problem != ProblemMM || payload.Size <= 0 || payload.Checksum == "" {
		t.Fatalf("bad payload: %+v", payload)
	}
	// Cross-check against an in-process run of the library.
	g := graph.RMat(10, 5000, 3)
	want := greedy.MaximalMatching(g, greedy.WithSeed(13))
	if payload.Size != want.Size() {
		t.Fatalf("service matching size %d, library %d", payload.Size, want.Size())
	}
	if payload.Checksum != (greedy.Answer{In: want.InMatching}).Checksum() {
		t.Fatal("service checksum disagrees with library run")
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	if _, err := c.Submit(ctx, JobRequest{GraphID: "gmissing", Problem: "mis"}); err == nil {
		t.Error("job on unknown graph accepted")
	}
	if _, err := c.Submit(ctx, JobRequest{GraphID: "gmissing", Problem: "frobnicate"}); err == nil {
		t.Error("unknown problem accepted")
	}
	if _, err := c.Status(ctx, "j999999"); err == nil {
		t.Error("unknown job status served")
	}
	if _, _, err := c.Result(ctx, "j999999"); err == nil {
		t.Error("unknown job result served")
	}
	resp, err := http.Get(srv.URL + "/v1/graphs/gmissing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("graph get: got %d, want 404", resp.StatusCode)
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	gr, err := c.Generate(ctx, GenSpec{Generator: "random", N: 500, M: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, JobRequest{GraphID: gr.ID, Problem: "mis", Plan: greedy.Plan{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, JobRequest{GraphID: gr.ID, Problem: "mis", Plan: greedy.Plan{Seed: 2}}); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs.Submitted != 2 || snap.Jobs.DedupHits != 1 || snap.Jobs.Executed != 1 {
		t.Fatalf("bad job counters: %+v", snap.Jobs)
	}
	if snap.Registry.Graphs != 1 || snap.Registry.BytesResident <= 0 {
		t.Fatalf("bad registry counters: %+v", snap.Registry)
	}
	h, ok := snap.RunLatency[ProblemMIS]
	if !ok || h.Count != 1 {
		t.Fatalf("missing mis latency histogram: %+v", snap.RunLatency)
	}
}
