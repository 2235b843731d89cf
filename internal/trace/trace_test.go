package trace

import (
	"sync"
	"testing"
	"time"
)

// TestRingOrderAndWrap: the ring keeps exactly the newest `capacity`
// events, Recent returns them oldest-first with strictly increasing
// sequence numbers, and Total counts overwritten events too.
func TestRingOrderAndWrap(t *testing.T) {
	r := NewRecorder(4, 0)
	for i := 0; i < 10; i++ {
		r.Append(Event{Kind: KindRound, Round: int64(i)})
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := r.Recent(0)
	if len(evs) != 4 {
		t.Fatalf("Recent(0) returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantRound := int64(6 + i)
		wantSeq := uint64(7 + i)
		if ev.Round != wantRound || ev.Seq != wantSeq {
			t.Errorf("event %d: round=%d seq=%d, want round=%d seq=%d", i, ev.Round, ev.Seq, wantRound, wantSeq)
		}
		if ev.Time.IsZero() {
			t.Errorf("event %d: zero timestamp not stamped", i)
		}
	}
	// A limit below the retained count returns the newest events only.
	last2 := r.Recent(2)
	if len(last2) != 2 || last2[0].Seq != 9 || last2[1].Seq != 10 {
		t.Fatalf("Recent(2) = %+v, want seqs 9,10", last2)
	}
	// A limit above the retained count clamps.
	if got := len(r.Recent(100)); got != 4 {
		t.Fatalf("Recent(100) returned %d events, want 4", got)
	}
}

// TestRingUnwrappedOrder: before the ring wraps, Recent still answers
// oldest-first.
func TestRingUnwrappedOrder(t *testing.T) {
	r := NewRecorder(8, 0)
	for i := 0; i < 3; i++ {
		r.Append(Event{Round: int64(i)})
	}
	evs := r.Recent(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Round != int64(i) || ev.Seq != uint64(i+1) {
			t.Errorf("event %d out of order: %+v", i, ev)
		}
	}
}

// TestJobFilter: Job returns only the named job's retained events, in
// order, and overwritten events are honestly gone.
func TestJobFilter(t *testing.T) {
	r := NewRecorder(6, 0)
	r.Append(Event{Kind: KindSubmit, Job: "j1"})
	r.Append(Event{Kind: KindSubmit, Job: "j2"})
	r.Append(Event{Kind: KindRun, Job: "j1", DurMS: 1})
	r.Append(Event{Kind: KindDone, Job: "j1", Name: "done"})
	evs := r.Job("j1")
	if len(evs) != 3 {
		t.Fatalf("Job(j1) returned %d events, want 3", len(evs))
	}
	if evs[0].Kind != KindSubmit || evs[1].Kind != KindRun || evs[2].Kind != KindDone {
		t.Fatalf("Job(j1) out of order: %+v", evs)
	}
	if got := r.Job("j3"); got != nil {
		t.Fatalf("Job(j3) = %+v, want nil", got)
	}
	// Push j1's events out of the ring.
	for i := 0; i < 6; i++ {
		r.Append(Event{Kind: KindHTTP, Name: "GET /healthz"})
	}
	if got := r.Job("j1"); len(got) != 0 {
		t.Fatalf("Job(j1) after overwrite = %+v, want empty", got)
	}
}

// TestNilRecorder: a nil recorder is the valid disabled state — every
// method is a no-op and nothing panics.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Append(Event{Kind: KindSubmit, Job: "j1"})
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if r.Total() != 0 || r.RoundSampleEvery() != 0 {
		t.Error("nil recorder reports nonzero state")
	}
	if r.Recent(10) != nil || r.Job("j1") != nil {
		t.Error("nil recorder returned events")
	}
	if r.ShouldSampleRound(64) {
		t.Error("nil recorder wants round samples")
	}
	if NewRecorder(0, 1) != nil || NewRecorder(-5, 1) != nil {
		t.Error("non-positive capacity must return the nil (disabled) recorder")
	}
}

// TestRoundSampling: ShouldSampleRound fires on exact multiples of the
// interval and never when sampling is off.
func TestRoundSampling(t *testing.T) {
	r := NewRecorder(4, 64)
	if r.RoundSampleEvery() != 64 {
		t.Fatalf("RoundSampleEvery = %d, want 64", r.RoundSampleEvery())
	}
	for _, tc := range []struct {
		round int64
		want  bool
	}{{1, false}, {63, false}, {64, true}, {65, false}, {128, true}, {6400, true}} {
		if got := r.ShouldSampleRound(tc.round); got != tc.want {
			t.Errorf("ShouldSampleRound(%d) = %v, want %v", tc.round, got, tc.want)
		}
	}
	off := NewRecorder(4, 0)
	for round := int64(1); round <= 256; round++ {
		if off.ShouldSampleRound(round) {
			t.Fatalf("sampling-off recorder wants round %d", round)
		}
	}
}

// TestConcurrentAppend: concurrent appenders and readers race-cleanly
// (run with -race) and every sequence number is assigned exactly once.
func TestConcurrentAppend(t *testing.T) {
	r := NewRecorder(128, 0)
	const (
		writers = 8
		each    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Append(Event{Kind: KindRound, Name: "w", Round: int64(w*each + i)})
				if i%32 == 0 {
					r.Recent(16)
					r.Job("none")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != writers*each {
		t.Fatalf("Total = %d, want %d", got, writers*each)
	}
	evs := r.Recent(0)
	if len(evs) != 128 {
		t.Fatalf("retained %d events, want 128", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap between %d and %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestAppendAllocFree: steady-state Append performs zero allocations —
// the ring is the only storage and events are value copies. This is
// the tentpole's hot-path contract: recording must never put pressure
// on the GC that the algorithms' own allocation benchmarks would see.
func TestAppendAllocFree(t *testing.T) {
	r := NewRecorder(64, 4)
	// Fill past capacity so append takes the overwrite path.
	for i := 0; i < 128; i++ {
		r.Append(Event{Kind: KindRound, Round: int64(i)})
	}
	now := time.Now()
	ev := Event{Kind: KindRound, Job: "j1", Round: 7, Time: now}
	if allocs := testing.AllocsPerRun(100, func() { r.Append(ev) }); allocs != 0 {
		t.Errorf("Append allocates %.1f objects/op, want 0", allocs)
	}
	var nilR *Recorder
	if allocs := testing.AllocsPerRun(100, func() { nilR.Append(ev) }); allocs != 0 {
		t.Errorf("nil Append allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.ShouldSampleRound(12345) }); allocs != 0 {
		t.Errorf("ShouldSampleRound allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkAppend quantifies the per-event recording cost (the number
// EXPERIMENTS.md publishes next to the sampling-off zero).
func BenchmarkAppend(b *testing.B) {
	r := NewRecorder(1<<14, 1)
	ev := Event{Kind: KindRound, Job: "j1", Round: 1, Time: time.Now()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Round = int64(i)
		r.Append(ev)
	}
}

// BenchmarkDisabled quantifies the disabled (nil-recorder) path: the
// cost tracing adds to a service built without it.
func BenchmarkDisabled(b *testing.B) {
	var r *Recorder
	ev := Event{Kind: KindRound, Round: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.ShouldSampleRound(int64(i)) {
			r.Append(ev)
		}
	}
}
