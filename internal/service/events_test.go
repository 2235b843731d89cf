package service

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	greedy "repro"
	"repro/internal/trace"
)

// TestSSEDecoderFraming walks the wire format line by line: id/event/
// data frames, multi-line data, comment-only heartbeats, CRLF line
// endings, ignored unknown fields, and the two EOF shapes.
func TestSSEDecoderFraming(t *testing.T) {
	stream := "" +
		": connected sub=1\n\n" + // comment-only frame (connect banner)
		"id: 7\nevent: phase\ndata: {\"seq\":7}\n\n" + // full data frame
		"data: line1\ndata: line2\n\n" + // multi-line data, no id/event
		"retry: 1000\ndata: x\n\n" + // unknown field ignored
		"\n" + // stray blank line between frames skipped
		": hb dropped=3\n\n" + // heartbeat
		"id: 9\r\nevent: done\r\ndata: {}\r\n\r\n" // CRLF endings

	d := NewSSEDecoder(strings.NewReader(stream))

	ev, err := d.Next()
	if err != nil || !ev.IsComment() || ev.Comment != "connected sub=1" {
		t.Fatalf("frame 1 = %+v err=%v, want comment %q", ev, err, "connected sub=1")
	}

	ev, err = d.Next()
	if err != nil || ev.ID != "7" || ev.Event != "phase" || string(ev.Data) != `{"seq":7}` {
		t.Fatalf("frame 2 = %+v err=%v, want id=7 event=phase data={\"seq\":7}", ev, err)
	}
	if ev.IsComment() {
		t.Fatal("data frame classified as comment")
	}

	ev, err = d.Next()
	if err != nil || ev.ID != "" || ev.Event != "" || string(ev.Data) != "line1\nline2" {
		t.Fatalf("frame 3 = %+v err=%v, want joined multi-line data", ev, err)
	}

	ev, err = d.Next()
	if err != nil || string(ev.Data) != "x" {
		t.Fatalf("frame 4 = %+v err=%v, want unknown field ignored, data=x", ev, err)
	}

	ev, err = d.Next()
	if err != nil || ev.Comment != "hb dropped=3" {
		t.Fatalf("frame 5 = %+v err=%v, want heartbeat comment", ev, err)
	}

	ev, err = d.Next()
	if err != nil || ev.ID != "9" || ev.Event != "done" || string(ev.Data) != "{}" {
		t.Fatalf("frame 6 = %+v err=%v, want CRLF frame parsed", ev, err)
	}

	if _, err = d.Next(); err != io.EOF {
		t.Fatalf("clean end of stream: err = %v, want io.EOF", err)
	}

	// A frame cut off before its blank line is a truncation, not EOF.
	d = NewSSEDecoder(strings.NewReader("id: 1\ndata: {}\n"))
	if _, err = d.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestEventStreamLifecycle subscribes to /v1/events over a real HTTP
// server, runs a job, and asserts the lifecycle (submit → queue → run
// → done) plus sampled round and phase events arrive on the live
// stream, in recorder order.
func TestEventStreamLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, TraceRoundSample: 1})
	ctx := context.Background()

	info, err := c.Generate(ctx, GenSpec{Generator: "random", N: 2000, M: 8000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	// Subscribe before submitting so no lifecycle event can be missed;
	// the goroutine collects everything and the test filters by job id
	// once it knows it.
	var mu sync.Mutex
	var collected []trace.Event
	streamDone := make(chan error, 1)
	connected := make(chan struct{})
	go func() {
		once := false
		streamDone <- c.Events(streamCtx, EventFilter{}, func(msg StreamEvent) error {
			if !once {
				once = true
				close(connected)
			}
			if msg.IsComment() {
				return nil
			}
			ev, derr := msg.TraceEvent()
			if derr != nil {
				return derr
			}
			mu.Lock()
			collected = append(collected, ev)
			mu.Unlock()
			return nil
		})
	}()
	select {
	case <-connected:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never delivered its connect banner")
	}

	sub, err := c.Submit(ctx, JobRequest{GraphID: info.ID, Problem: "mis", Plan: greedy.ResolvePlan(greedy.WithSeed(2))})
	if err != nil {
		t.Fatal(err)
	}
	if st, werr := c.Wait(ctx, sub.ID, time.Millisecond); werr != nil || st.State != StateDone {
		t.Fatalf("wait: state=%v err=%v", st.State, werr)
	}

	// The job is done; wait for its done event to arrive on the stream.
	jobEvents := func() []trace.Event {
		mu.Lock()
		defer mu.Unlock()
		var out []trace.Event
		for _, ev := range collected {
			if ev.Job == sub.ID {
				out = append(out, ev)
			}
		}
		return out
	}
	hasDone := func(events []trace.Event) bool {
		for _, ev := range events {
			if ev.Kind == trace.KindDone {
				return true
			}
		}
		return false
	}
	waitFor(t, 10*time.Second, "the stream to deliver the job's done event", func() bool {
		return hasDone(jobEvents())
	})
	stopStream()
	if err := <-streamDone; err != nil {
		t.Fatalf("stream ended with error: %v", err)
	}

	seen := map[trace.Kind]bool{}
	var lastSeq uint64
	for _, ev := range jobEvents() {
		seen[ev.Kind] = true
		if ev.Seq <= lastSeq {
			t.Fatalf("stream out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Kind == trace.KindPhase && ev.CheckMS+ev.CommitMS+ev.SlideMS <= 0 {
			t.Fatalf("phase event carries no durations: %+v", ev)
		}
	}
	for _, k := range []trace.Kind{trace.KindSubmit, trace.KindQueue, trace.KindRun, trace.KindDone, trace.KindRound, trace.KindPhase} {
		if !seen[k] {
			t.Fatalf("live stream missing %s event; saw %v", k, seen)
		}
	}
}

// TestEventStreamKindFilter: a ?kind= subscription receives only the
// named kinds, and an unknown kind is rejected with 400 up front.
func TestEventStreamKindFilter(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, TraceRoundSample: 1})
	ctx := context.Background()

	info, err := c.Generate(ctx, GenSpec{Generator: "random", N: 500, M: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	done := make(chan error, 1)
	connected := make(chan struct{})
	go func() {
		once := false
		done <- c.Events(streamCtx, EventFilter{Kinds: []string{"done"}}, func(msg StreamEvent) error {
			if !once {
				once = true
				close(connected)
			}
			if msg.IsComment() {
				return nil
			}
			ev, derr := msg.TraceEvent()
			if derr != nil {
				return derr
			}
			if ev.Kind != trace.KindDone {
				t.Errorf("kind=done subscription received %s event", ev.Kind)
			}
			if ev.Kind == trace.KindDone {
				stopStream()
			}
			return nil
		})
	}()
	// Subscribe-before-submit: the job is small enough to finish (and
	// publish its only done event) before an unsynchronized subscription
	// attaches.
	select {
	case <-connected:
	case <-time.After(10 * time.Second):
		t.Fatal("filtered stream never delivered its connect banner")
	}

	sub, err := c.Submit(ctx, JobRequest{GraphID: info.ID, Problem: "mis", Plan: greedy.ResolvePlan(greedy.WithSeed(1))})
	if err != nil {
		t.Fatal(err)
	}
	if st, werr := c.Wait(ctx, sub.ID, time.Millisecond); werr != nil || st.State != StateDone {
		t.Fatalf("wait: state=%v err=%v", st.State, werr)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("filtered stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("filtered stream never saw the done event")
	}

	if err := c.Events(ctx, EventFilter{Kinds: []string{"bogus"}}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown event kind") {
		t.Fatalf("bogus kind: err = %v, want unknown-event-kind rejection", err)
	}
}

// TestEventStreamDisabled: without tracing (or with streaming
// explicitly off) the endpoint answers 404.
func TestEventStreamDisabled(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 1, TraceCapacity: -1},
		{Workers: 1, StreamSubscribers: -1},
	} {
		_, c := newTestServer(t, cfg)
		err := c.Events(context.Background(), EventFilter{}, nil)
		if err == nil || !strings.Contains(err.Error(), "404") {
			t.Fatalf("config %+v: err = %v, want 404", cfg, err)
		}
	}
}

// TestEventStreamAdmission: the subscriber limit maps to 503 on the
// wire.
func TestEventStreamAdmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, StreamSubscribers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	connected := make(chan struct{})
	go func() {
		once := false
		c.Events(ctx, EventFilter{}, func(StreamEvent) error {
			if !once {
				once = true
				close(connected)
			}
			return nil
		})
	}()
	select {
	case <-connected:
	case <-time.After(10 * time.Second):
		t.Fatal("first subscriber never connected")
	}

	err := c.Events(ctx, EventFilter{}, nil)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("second subscriber: err = %v, want 503 at the admission limit", err)
	}
}

// TestPhaseDurationsTileRunSpan is the profiler's accuracy contract:
// for a job whose execution is dominated by the engine's round loop (a
// tiny absolute prefix forces ~n rounds, so setup and extraction are
// noise), the per-phase durations accumulated in the job's progress sum
// to within 5% of the job's measured run span.
func TestPhaseDurationsTileRunSpan(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, TraceRoundSample: 1})

	g, _, err := svc.Generate(GenSpec{Generator: "random", N: 4000, M: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := svc.Engine().Submit(JobSpec{
		GraphID: g.ID,
		Problem: ProblemMIS,
		Plan:    greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 1, PrefixSize: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "job "+st.ID+" to finish", func() bool {
		if st, err = svc.Engine().Status(st.ID); err != nil {
			t.Fatal(err)
		}
		if st.State == StateFailed || st.State == StateCancelled {
			t.Fatalf("job ended %s", st.State)
		}
		return st.State == StateDone
	})
	if st.Progress == nil {
		t.Fatal("done job has no progress")
	}
	p := st.Progress
	sum := p.CheckMS + p.CommitMS + p.SlideMS
	if sum <= 0 {
		t.Fatalf("no phase durations accumulated: %+v", p)
	}
	if st.RunMS <= 0 {
		t.Fatalf("run span not measured: %+v", st)
	}
	ratio := sum / st.RunMS
	if ratio < 0.95 || ratio > 1.0+1e-9 {
		t.Fatalf("phase sum %.3fms vs run span %.3fms (ratio %.3f): phases must tile the run span within 5%% on a loop-dominated job (rounds=%d)",
			sum, st.RunMS, ratio, p.Rounds)
	}
}
