// Package trace is the service's in-process flight recorder: a
// fixed-size ring buffer of structured events covering the whole job
// lifecycle (submit → checkout → queue → resolve → run → done), the
// per-round progress stream the paper's Figure 1 plots (sampled, so a
// million-round run does not flood the ring), per-Apply dynamic-repair
// events carrying the frontier cost counters, and HTTP request spans.
//
// The recorder is deliberately dumb: one mutex, one preallocated slice
// of value-typed events, no per-event allocation. Appending copies a
// fixed-size struct under a short critical section; queries copy
// matching events out under the same lock. A nil *Recorder is valid
// and records nothing, so call sites thread it unconditionally — the
// disabled path is a single pointer test.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind string

// The event kinds, in job-lifecycle order.
const (
	// KindSubmit marks a job's acceptance into the queue. Name is the
	// problem; for deduplicated submissions Name is "dedup" and the
	// event points at the absorbing job.
	KindSubmit Kind = "submit"
	// KindCheckout records the registry graph acquisition performed at
	// submission (Name is the graph id, Dur the acquire time).
	KindCheckout Kind = "checkout"
	// KindQueue is the span a job spent queued: emitted when a worker
	// dequeues it, Dur = dequeue time - submit time.
	KindQueue Kind = "queue"
	// KindResolve records how a dynamic job's session was resolved:
	// Name is "hit" (exact-version session), "replay" (ancestor session
	// advanced by patch-chain repair), or "scratch" (no usable session;
	// computed from scratch and seeded one).
	KindResolve Kind = "resolve"
	// KindRound is a sampled round-observer report: the Figure 1
	// quantities of one round of the algorithm.
	KindRound Kind = "round"
	// KindPhase is a sampled per-phase profile of one engine round: the
	// round's wall time decomposed into the check/commit fork-joins
	// and the window-slide remainder, plus the retry-tail size. Emitted
	// alongside KindRound when phase profiling is active.
	KindPhase Kind = "phase"
	// KindRepair is one Maintainer.Apply during a dynamic job's
	// patch-chain replay: the change-driven frontier repair cost of one
	// update batch.
	KindRepair Kind = "repair"
	// KindRun is the span a job spent executing: emitted at completion,
	// Dur = finish time - start time.
	KindRun Kind = "run"
	// KindDone marks a job's terminal transition; Name is the final
	// state (done, failed, cancelled).
	KindDone Kind = "done"
	// KindHTTP is one served HTTP request (Name is "METHOD /path").
	KindHTTP Kind = "http"
)

// Event is one recorded occurrence. It is a flat fixed-size value —
// kinds use the fields they need and leave the rest zero, which
// omitempty elides from the JSON wire form.
type Event struct {
	// Seq is the recorder-global sequence number (1-based, totally
	// ordered by Append).
	Seq uint64 `json:"seq"`
	// Time is the event timestamp (span events: the span's end).
	Time time.Time `json:"time"`
	Kind Kind      `json:"kind"`
	// Job is the job id the event belongs to ("" for HTTP events).
	Job string `json:"job,omitempty"`
	// Name carries the kind-specific label; see the Kind constants.
	Name string `json:"name,omitempty"`
	// DurMS is the span duration in milliseconds (0 for point events).
	DurMS float64 `json:"duration_ms,omitempty"`

	// Round-sample payload (KindRound, KindPhase).
	Round       int64 `json:"round,omitempty"`
	Prefix      int   `json:"prefix,omitempty"`
	Attempted   int64 `json:"attempted,omitempty"`
	Accepted    int64 `json:"accepted,omitempty"`
	Inspections int64 `json:"inspections,omitempty"`

	// Phase-profile payload (KindPhase): one sampled round's wall time
	// by engine phase, in milliseconds, plus the retry tail carried
	// into the next round.
	CheckMS   float64 `json:"check_ms,omitempty"`
	CommitMS  float64 `json:"commit_ms,omitempty"`
	SlideMS   float64 `json:"slide_ms,omitempty"`
	RetryTail int     `json:"retry_tail,omitempty"`

	// Repair payload (KindRepair): the frontier cost of one batch.
	Batch        int `json:"batch,omitempty"`
	Seeds        int `json:"seeds,omitempty"`
	Visited      int `json:"visited,omitempty"`
	Flipped      int `json:"flipped,omitempty"`
	FrontierPeak int `json:"frontier_peak,omitempty"`
	Changed      int `json:"changed,omitempty"`

	// HTTP payload (KindHTTP).
	Status int   `json:"status,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
}

// Recorder is the fixed-capacity event ring. The zero value is not
// usable; NewRecorder sizes the ring once and Append never grows it —
// old events are overwritten, which is the point: the recorder answers
// "what happened recently", not "what ever happened".
type Recorder struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever appended; buf[(total-1) % cap] is newest

	sampleEvery int64

	// bcast, when set, receives every appended event for live fan-out.
	// It is read with an atomic load on the Append path and published
	// to only after r.mu is released, so streaming adds nothing to the
	// recorder's critical section.
	bcast atomic.Pointer[Broadcaster]
}

// NewRecorder returns a recorder holding the last capacity events.
// capacity <= 0 returns nil — the valid "tracing disabled" recorder.
// roundSampleEvery controls the round-event stream: every Nth round of
// a running job is recorded; <= 0 disables round events entirely (the
// lifecycle and repair events are always recorded). Lifecycle call
// sites consult ShouldSampleRound on their hot path.
func NewRecorder(capacity int, roundSampleEvery int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{
		buf:         make([]Event, 0, capacity),
		sampleEvery: int64(roundSampleEvery),
	}
}

// Enabled reports whether the recorder records anything (false for the
// nil recorder).
func (r *Recorder) Enabled() bool { return r != nil }

// ShouldSampleRound reports whether the given 1-based round index is
// due for a KindRound event. It takes no lock and allocates nothing —
// this is the only trace call on the per-round hot path.
func (r *Recorder) ShouldSampleRound(round int64) bool {
	return r != nil && r.sampleEvery > 0 && round%r.sampleEvery == 0
}

// RoundSampleEvery returns the configured round sampling interval (0
// when round sampling is off or the recorder is nil).
func (r *Recorder) RoundSampleEvery() int {
	if r == nil || r.sampleEvery <= 0 {
		return 0
	}
	return int(r.sampleEvery)
}

// SetBroadcaster attaches a live fan-out: every event Append accepts
// is also offered to b (after the recorder's lock is released, with
// its Seq and Time stamped). A nil b detaches. Safe to call
// concurrently with Append.
func (r *Recorder) SetBroadcaster(b *Broadcaster) {
	if r == nil {
		return
	}
	r.bcast.Store(b)
}

// Broadcaster returns the attached fan-out (nil when streaming is
// off).
func (r *Recorder) Broadcaster() *Broadcaster {
	if r == nil {
		return nil
	}
	return r.bcast.Load()
}

// Append records an event, stamping Seq and, if unset, Time. The event
// is copied by value; Append performs no allocation once the ring is
// at capacity (the fill phase appends into preallocated backing).
func (r *Recorder) Append(ev Event) {
	if r == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.mu.Lock()
	r.total++
	ev.Seq = r.total
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[(r.total-1)%uint64(cap(r.buf))] = ev
	}
	r.mu.Unlock()
	// Fan out after unlocking: the broadcaster's queues have their own
	// locks, and the doorbell channel ops must never run under r.mu.
	if b := r.bcast.Load(); b != nil {
		b.Publish(ev)
	}
}

// Total returns the number of events ever appended (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Capacity returns the ring size (0 for the nil recorder).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Recent returns up to limit of the newest events, oldest first.
// limit <= 0 means everything the ring holds.
func (r *Recorder) Recent(limit int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Event, 0, limit)
	for i := n - limit; i < n; i++ {
		out = append(out, r.at(i))
	}
	return out
}

// Job returns every retained event of one job, oldest first. Events a
// full ring has overwritten are gone — a trace of a long-finished job
// may be partial or empty.
func (r *Recorder) Job(id string) []Event {
	if r == nil || id == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for i := 0; i < len(r.buf); i++ {
		if ev := r.at(i); ev.Job == id {
			out = append(out, ev)
		}
	}
	return out
}

// at returns the i-th oldest retained event; callers hold r.mu.
func (r *Recorder) at(i int) Event {
	n := uint64(len(r.buf))
	if n < uint64(cap(r.buf)) {
		// Ring not yet wrapped: storage order is age order.
		return r.buf[i]
	}
	return r.buf[(r.total+uint64(i))%n]
}
