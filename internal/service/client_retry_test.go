package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	greedy "repro"
)

// flakyHandler refuses the first fail requests with code (and a
// Retry-After of zero seconds so tests stay fast), then delegates.
func flakyHandler(fail int64, code int, next http.Handler) (http.Handler, *atomic.Int64) {
	var rejected atomic.Int64
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= fail {
			rejected.Add(1)
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(code)
			_ = json.NewEncoder(w).Encode(errorBody{Error: "synthetic overload"})
			return
		}
		next.ServeHTTP(w, r)
	}), &rejected
}

// TestClientRetriesOverload exercises the client backoff policy
// end-to-end against a real service behind a flaky front: the first
// submissions bounce with 429/503 and the client converges without the
// caller seeing an error.
func TestClientRetriesOverload(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	for _, tc := range []struct {
		name string
		code int
	}{
		{"queue_full_429", http.StatusTooManyRequests},
		{"draining_503", http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, rejected := flakyHandler(2, tc.code, svc.Handler())
			srv := httptest.NewServer(h)
			defer srv.Close()
			client := &Client{
				BaseURL: srv.URL,
				Retry:   BackoffPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
			}
			gen, err := client.Generate(context.Background(), GenSpec{Generator: "random", N: 1_000, M: 4_000, Seed: 1})
			if err != nil {
				t.Fatalf("Generate with %d front: %v", tc.code, err)
			}
			if got := rejected.Load(); got != 2 {
				t.Fatalf("rejected = %d, want 2", got)
			}
			rejected.Store(0)

			h2, rejected2 := flakyHandler(2, tc.code, svc.Handler())
			srv2 := httptest.NewServer(h2)
			defer srv2.Close()
			client.BaseURL = srv2.URL
			job, err := client.Submit(context.Background(), JobRequest{GraphID: gen.ID, Problem: "mis",
				Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 5}})
			if err != nil {
				t.Fatalf("Submit with %d front: %v", tc.code, err)
			}
			if got := rejected2.Load(); got != 2 {
				t.Fatalf("rejected = %d, want 2", got)
			}
			if st, err := client.Wait(context.Background(), job.ID, time.Millisecond); err != nil || st.State != StateDone {
				t.Fatalf("Wait: state=%v err=%v", st.State, err)
			}
		})
	}
}

// TestClientRetryDisabledByDefault pins the zero-value contract: no
// Retry policy means the first overload answer surfaces immediately.
func TestClientRetryDisabledByDefault(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	h, rejected := flakyHandler(1, http.StatusTooManyRequests, svc.Handler())
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	if _, err := client.Generate(context.Background(), GenSpec{Generator: "random", N: 1_000, M: 4_000, Seed: 1}); err == nil {
		t.Fatal("zero-value client retried through a 429")
	}
	if got := rejected.Load(); got != 1 {
		t.Fatalf("server saw %d rejections, want exactly 1 (no retry)", got)
	}
}

// TestClientRetryExhaustion pins the give-up contract: when every
// attempt bounces, the caller gets the overload error, after exactly
// MaxAttempts tries.
func TestClientRetryExhaustion(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	h, rejected := flakyHandler(100, http.StatusServiceUnavailable, svc.Handler())
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &Client{
		BaseURL: srv.URL,
		Retry:   BackoffPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}
	_, err := client.Generate(context.Background(), GenSpec{Generator: "random", N: 1_000, M: 4_000, Seed: 1})
	if err == nil {
		t.Fatal("Generate succeeded against a permanently overloaded server")
	}
	if got := rejected.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}
