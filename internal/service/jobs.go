package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	greedy "repro"
	"repro/internal/dynamic"
	"repro/internal/persist"
	"repro/internal/trace"
)

// Problem names a computation the service can run: a facade problem,
// on the graph (hitting set: on its vertex-cover system).
type Problem = greedy.Problem

// The problems the service runs.
const (
	ProblemMIS        = greedy.ProblemMIS
	ProblemMM         = greedy.ProblemMM
	ProblemSF         = greedy.ProblemSF
	ProblemColoring   = greedy.ProblemColoring
	ProblemHittingSet = greedy.ProblemHittingSet
)

// ParseProblem validates a problem name.
func ParseProblem(s string) (Problem, error) { return greedy.ParseProblem(s) }

// JobState is the lifecycle state of a job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
	// StateDeadline is the terminal state of a job that ran past its own
	// timeout_ms budget. Like failed and cancelled jobs it is not a
	// dedup target — a deadline says nothing about the answer, so a
	// resubmission (same timeout on an idler box, or a larger one) must
	// start a fresh execution rather than absorb into the timed-out run.
	StateDeadline JobState = "deadline_exceeded"
)

// Terminal reports whether s is final: done, failed, cancelled or
// deadline_exceeded. A job in a final state never changes state again.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateDeadline:
		return true
	}
	return false
}

// Job engine errors.
var (
	ErrQueueFull   = errors.New("service: job queue full")
	ErrJobNotFound = errors.New("service: job not found (unknown id or expired)")
	ErrJobFinished = errors.New("service: job already finished")
	ErrClosed      = errors.New("service: engine closed")
)

// JobSpec identifies a deterministic computation: which graph, which
// problem, and the resolved algorithm configuration as a greedy.Plan —
// the library's own serializable form of an option list, used verbatim
// as the wire form of submissions. Two jobs with equal specs produce
// bit-identical results (the paper's determinism guarantee), which is
// why Key is a sound idempotency key.
type JobSpec struct {
	GraphID string      `json:"graph_id"`
	Problem Problem     `json:"problem"`
	Plan    greedy.Plan `json:"plan"`
	// TimeoutMS, when positive, bounds the job's execution wall time:
	// the worker runs it under a context deadline and a run that
	// overshoots terminates in state deadline_exceeded. 0 means no
	// per-job deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Key returns the idempotency key (graphID, problem, plan): submissions
// with equal keys are deduplicated into one execution. Every Plan field
// participates — Grain and Pointered do not change the selected set,
// but they do change the Stats embedded in the payload, and dedup
// promises byte-identical payloads. AdaptivePrefix participates too:
// its schedule is deterministic per (graph, plan), but its Stats (and,
// for spanning forest, its selected edges) differ from any fixed
// window's. Dynamic participates doubly: a dynamic MM plan selects a
// different (hash-priority) matching, and dynamic payloads carry
// repair provenance.
//
// Byte-identical payloads are promised per EXECUTION: every read of a
// deduplicated job serves the same marshaled bytes. Across separate
// executions of an equal key (after TTL reaping), the answer fields
// (size, checksum, members) are bit-identical by the determinism
// guarantee, but execution-provenance fields — run_ms always, and for
// dynamic jobs repaired/repaired_from/repair/stats, which depend on
// what the session cache held — describe the particular execution.
func (s JobSpec) Key() string {
	p := s.Plan
	// TimeoutMS participates: the answer bytes do not depend on it, but
	// a submission with a tighter budget must not absorb into a looser
	// run whose caller was willing to wait longer (and vice versa) —
	// the terminal state itself can differ.
	return fmt.Sprintf("%s|%s|%s|%d|%g|%d|%t|%t|%d|%t|%d",
		s.GraphID, s.Problem, p.Algorithm, p.Seed, p.PrefixFrac, p.PrefixSize, p.AdaptivePrefix, p.Dynamic, p.Grain, p.Pointered, s.TimeoutMS)
}

// Validate rejects specs no algorithm can run, so they map to HTTP 400
// at submission. The problem's rules are Problem.Check's, which every
// Solver run applies too; the service adds only its own: no explicit
// order, knobs in range, no negative timeout.
func (s JobSpec) Validate() error {
	p := s.Plan
	if err := s.Problem.Check(p); err != nil {
		return err
	}
	if p.ExplicitOrder {
		return fmt.Errorf("service: explicit orders are not serializable and cannot be submitted")
	}
	if p.PrefixFrac < 0 || p.PrefixFrac > 1 {
		return fmt.Errorf("service: prefix_frac %g outside [0,1]", p.PrefixFrac)
	}
	if p.PrefixSize < 0 {
		return fmt.Errorf("service: negative prefix_size %d", p.PrefixSize)
	}
	if p.Grain < 0 {
		return fmt.Errorf("service: negative grain %d", p.Grain)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("service: negative timeout_ms %d", s.TimeoutMS)
	}
	return nil
}

// Job is one tracked computation. Fields other than ID and Spec are
// guarded by the engine mutex, except the progress counters, which the
// running worker updates through atomics so Status can read them
// mid-run without taking the round loop off CPU.
type Job struct {
	ID   string
	Spec JobSpec

	state       JobState
	err         string
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	result      []byte // marshaled ResultPayload, set once on success

	handle *Handle // pin on the input graph from submit to completion

	// ctx carries the job's cancellation; cancel is invoked by
	// Engine.Cancel and by Close, and aborts a running job within one
	// round of its algorithm.
	ctx    context.Context
	cancel context.CancelFunc

	// Live round progress, written by the worker's round observer.
	progRounds      atomic.Int64
	progPrefix      atomic.Int64
	progAttempted   atomic.Int64
	progResolved    atomic.Int64
	progInspections atomic.Int64

	// Cumulative per-phase wall time (nanoseconds) and the latest
	// retry-tail size, written by the round observer when phase
	// profiling is active (zero otherwise).
	progCheckNS   atomic.Int64
	progCommitNS  atomic.Int64
	progSlideNS   atomic.Int64
	progRetryTail atomic.Int64
}

// newJob returns a queued job for spec under id, holding the pin h on
// its input graph and a fresh cancellation context.
func newJob(id string, spec JobSpec, h *Handle) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{ID: id, Spec: spec, state: StateQueued, submittedAt: time.Now(),
		handle: h, ctx: ctx, cancel: cancel}
}

// release drops the job's graph pin and its context; every exit of a
// job that holds a pin, from a refused admission to a finished run,
// goes through it. Both halves are idempotent.
func (j *Job) release() {
	j.cancel()
	j.handle.Release()
}

// JobProgress is the live view of a running (or final view of a
// finished) job's round loop: the paper's Figure 1 quantities as they
// accumulate. Absent for jobs that have not completed a round.
type JobProgress struct {
	// Rounds completed so far.
	Rounds int64 `json:"rounds"`
	// PrefixSize is the resolved prefix window of the run (0 for
	// algorithms without one). Adaptive runs report the controller's
	// current window, so polling Status shows the schedule live.
	PrefixSize int64 `json:"prefix_size,omitempty"`
	// Attempted is the cumulative number of iterate-processings (the
	// paper's total-work measure).
	Attempted int64 `json:"attempted"`
	// Resolved is the cumulative number of iterates decided.
	Resolved int64 `json:"resolved"`
	// EdgeInspections is the cumulative neighbor/endpoint reads.
	EdgeInspections int64 `json:"edge_inspections"`

	// Cumulative engine phase profile (present when phase profiling is
	// active, i.e. when trace round sampling is on): wall time by
	// check/commit/slide phase and the latest retry-tail size. The sums
	// tile the round loop's span, so together they show where a run's time
	// went — and their total tracks the job's run span to within the
	// loop's startup/teardown cost.
	CheckMS   float64 `json:"check_ms,omitempty"`
	CommitMS  float64 `json:"commit_ms,omitempty"`
	SlideMS   float64 `json:"slide_ms,omitempty"`
	RetryTail int64   `json:"retry_tail,omitempty"`
}

// JobStatus is the public JSON view of a job.
type JobStatus struct {
	ID          string       `json:"job_id"`
	GraphID     string       `json:"graph_id"`
	Problem     Problem      `json:"problem"`
	Plan        greedy.Plan  `json:"plan"`
	State       JobState     `json:"state"`
	Error       string       `json:"error,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	QueueMS     float64      `json:"queue_ms,omitempty"`
	RunMS       float64      `json:"run_ms,omitempty"`
	Progress    *JobProgress `json:"progress,omitempty"`
}

// ResultPayload is the JSON body served by GET /v1/jobs/{id}/result.
// It is marshaled exactly once per execution, so every read of a
// deduplicated job returns byte-identical bytes.
type ResultPayload struct {
	JobID    string       `json:"job_id"`
	GraphID  string       `json:"graph_id"`
	Problem  Problem      `json:"problem"`
	Plan     greedy.Plan  `json:"plan"`
	N        int          `json:"n"`
	M        int          `json:"m"`
	Size     int          `json:"size"`
	Checksum string       `json:"checksum"`
	Stats    greedy.Stats `json:"stats"`
	RunMS    float64      `json:"run_ms"`
	// Members is the answer's member ids: the selected vertices (MIS) or
	// elements (hitting set), or coloring's color array, one color per
	// vertex. MemberPairs holds the selected edges' endpoints (MM, SF).
	// Both are omitted above memberCap entries (memberCap/2 pairs); the
	// Checksum still commits to the full answer.
	Members        []int32    `json:"members,omitempty"`
	MemberPairs    [][2]int32 `json:"member_pairs,omitempty"`
	MembersOmitted bool       `json:"members_omitted,omitempty"`

	// Dynamic-job provenance. Dynamic marks churn-stable-priority jobs.
	// Repaired reports that the answer came from advancing a maintained
	// session across graph versions (RepairedFrom names the ancestor
	// version the session was at, Repair aggregates the change-driven
	// frontier-repair work: seeds, visited, flipped, frontier peak,
	// changed); a dynamic job without a usable session computes from
	// scratch and seeds a session for its version. For repaired jobs
	// Stats describes the repair work — the point of the subsystem is
	// exactly that those counters stay proportional to the flipped
	// damage region, not to n (and, since PR 5, not to the hub fan-out
	// of the priority DAG either).
	Dynamic       bool                 `json:"dynamic,omitempty"`
	Repaired      bool                 `json:"repaired,omitempty"`
	RepairedFrom  string               `json:"repaired_from,omitempty"`
	RepairBatches int                  `json:"repair_batches,omitempty"`
	Repair        *dynamic.RepairStats `json:"repair,omitempty"`
}

// Engine runs jobs on a bounded worker pool with idempotency-key
// deduplication, a TTL result store, and cooperative cancellation.
// Each worker owns one reusable greedy.Solver, so steady-state
// executions reuse frontier/flag/reservation arrays instead of
// reallocating them per job.
type Engine struct {
	reg     *Registry
	metrics *Metrics
	ttl     time.Duration
	trace   *trace.Recorder // nil when tracing is disabled
	log     *slog.Logger

	// journal, when non-nil, is the durable WAL of accepted jobs: every
	// Submit fsyncs an accept record before returning, every terminal
	// transition appends a completion marker, and boot re-enqueues
	// whatever the journal still owes (see Recover).
	journal *persist.Journal

	mu     sync.Mutex
	jobs   map[string]*Job
	byKey  map[string]*Job
	closed bool
	// shuttingDown marks a Drain in progress: jobs cancelled by the
	// shutdown itself skip their journal completion marker, so a
	// crash-equivalent drain still re-serves them at next boot.
	shuttingDown bool
	// doneTimes is a ring of recent completion timestamps (newest last),
	// the drain-rate sample behind RetryAfterSeconds.
	doneTimes []time.Time

	// sessions caches the maintained solutions of dynamic jobs.
	sessions sessionCache

	queue  chan *Job
	stop   chan struct{}
	wg     sync.WaitGroup
	nextID atomic.Int64
}

// newEngine starts an engine over reg with cfg's resolved defaults
// (Config.withDefaults). rec receives job lifecycle spans, sampled
// round events and per-Apply repair events; journal, when non-nil,
// makes accepted jobs durable.
func newEngine(cfg Config, reg *Registry, metrics *Metrics, rec *trace.Recorder, journal *persist.Journal) *Engine {
	e := &Engine{
		reg:      reg,
		metrics:  metrics,
		ttl:      cfg.ResultTTL,
		trace:    rec,
		log:      cfg.Logger,
		journal:  journal,
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
		sessions: sessionCache{m: make(map[sessKey]*dynamic.Maintainer), limit: cfg.DynamicSessions},
		queue:    make(chan *Job, cfg.QueueDepth),
		stop:     make(chan struct{}),
	}
	e.wg.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	go e.janitor()
	return e
}

// Status returns the current state of a job.
func (e *Engine) Status(id string) (JobStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	return e.statusLocked(job), nil
}

// Result returns the marshaled result payload of a done job, or the
// job's status when it is not done yet (second return) so callers can
// distinguish pending from missing.
func (e *Engine) Result(id string) ([]byte, JobStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return nil, JobStatus{}, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	st := e.statusLocked(job)
	if job.state != StateDone {
		return nil, st, nil
	}
	return job.result, st, nil
}

func (e *Engine) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:          job.ID,
		GraphID:     job.Spec.GraphID,
		Problem:     job.Spec.Problem,
		Plan:        job.Spec.Plan,
		State:       job.state,
		Error:       job.err,
		SubmittedAt: job.submittedAt,
	}
	if rounds := job.progRounds.Load(); rounds > 0 {
		st.Progress = &JobProgress{
			Rounds:          rounds,
			PrefixSize:      job.progPrefix.Load(),
			Attempted:       job.progAttempted.Load(),
			Resolved:        job.progResolved.Load(),
			EdgeInspections: job.progInspections.Load(),
			CheckMS:         float64(job.progCheckNS.Load()) / 1e6,
			CommitMS:        float64(job.progCommitNS.Load()) / 1e6,
			SlideMS:         float64(job.progSlideNS.Load()) / 1e6,
			RetryTail:       job.progRetryTail.Load(),
		}
	}
	if !job.startedAt.IsZero() {
		st.QueueMS = float64(job.startedAt.Sub(job.submittedAt)) / float64(time.Millisecond)
	}
	if !job.finishedAt.IsZero() && !job.startedAt.IsZero() {
		st.RunMS = float64(job.finishedAt.Sub(job.startedAt)) / float64(time.Millisecond)
	}
	return st
}

// stateCounts returns the number of resident jobs in each state.
func (e *Engine) stateCounts() (queued, running, done, failed, cancelled, deadline int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		case StateDone:
			done++
		case StateFailed:
			failed++
		case StateCancelled:
			cancelled++
		case StateDeadline:
			deadline++
		}
	}
	return
}

// Close stops the engine immediately: equivalent to Drain(0).
func (e *Engine) Close() { e.Drain(0) }

// Drain stops the engine gracefully: new submissions are refused at
// once, then in-flight and queued work gets up to window to finish
// naturally before whatever remains is cancelled (their round loops
// abort within one round) and workers and the janitor are joined.
// Journaled jobs cancelled by the drain keep their accept records, so
// the next boot re-serves them — a drain that runs out of window
// degrades into a clean crash, never into lost acknowledgements. Safe
// to call once; later calls are no-ops.
func (e *Engine) Drain(window time.Duration) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.shuttingDown = true
	e.mu.Unlock()

	deadline := time.Now().Add(window)
	for window > 0 {
		e.mu.Lock()
		busy := false
		for _, j := range e.jobs {
			if !j.state.Terminal() {
				busy = true
				break
			}
		}
		e.mu.Unlock()
		if !busy || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	e.mu.Lock()
	// Cancel what the window did not drain so shutdown is bounded by
	// one round, not by the longest job.
	for _, j := range e.jobs {
		if !j.state.Terminal() {
			j.cancel()
		}
	}
	e.mu.Unlock()
	close(e.stop)
	close(e.queue)
	e.wg.Wait()
}

// janitor reaps finished jobs past the TTL.
func (e *Engine) janitor() {
	defer e.wg.Done()
	period := e.ttl / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Minute {
		period = time.Minute
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-e.ttl)
			reaped := 0
			e.mu.Lock()
			for id, j := range e.jobs {
				if j.state.Terminal() && !j.finishedAt.IsZero() && j.finishedAt.Before(cutoff) {
					delete(e.jobs, id)
					e.dropKeyLocked(j)
					reaped++
				}
			}
			e.mu.Unlock()
			if reaped > 0 {
				e.metrics.jobsReaped(reaped)
			}
		}
	}
}
