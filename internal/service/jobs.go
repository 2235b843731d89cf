package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	greedy "repro"
	"repro/internal/dynamic"
	"repro/internal/fault"
	"repro/internal/graph"
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

// memberCap bounds the membership list embedded in a result payload.
const memberCap = 1 << 20

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

	// Dynamic-session cache: maintained solutions keyed by (graph
	// version, problem, seed), checked out exclusively while a worker
	// advances or reads them, bounded LRU. A session is how a dynamic
	// job for a patched graph version repairs instead of recomputes.
	sessMu   sync.Mutex
	sessions map[sessKey]*dynamic.Maintainer
	sessLRU  []sessKey
	sessCap  int

	queue  chan *Job
	stop   chan struct{}
	wg     sync.WaitGroup
	nextID atomic.Int64
}

// sessKey identifies a maintainable solution state. Plan fields beyond
// the seed do not participate: every deterministic schedule yields the
// same maintained set, which is the only state a session holds.
type sessKey struct {
	graphID string
	problem Problem
	seed    uint64
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued jobs; 0 means 4096.
	QueueDepth int
	// ResultTTL is how long finished jobs are retained; 0 means 15m.
	ResultTTL time.Duration
	// DynamicSessions bounds the cached dynamic sessions (maintained
	// MIS/MM states, each holding solution arrays sized to its graph);
	// 0 means 8, negative disables the cache (dynamic jobs always
	// recompute).
	DynamicSessions int
	// Trace receives job lifecycle spans, sampled round events, and
	// per-Apply repair events; nil disables recording.
	Trace *trace.Recorder
	// Logger receives job state-transition logs; nil discards them.
	Logger *slog.Logger
	// Journal, when non-nil, makes accepted jobs durable: accept records
	// are fsync'd before Submit returns and completions are marked, so
	// a restart can re-enqueue what a crash interrupted.
	Journal *persist.Journal
}

// NewEngine starts an engine over reg. metrics may be nil.
func NewEngine(reg *Registry, metrics *Metrics, cfg EngineConfig) *Engine {
	if metrics == nil {
		metrics = NewMetrics()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4096
	}
	ttl := cfg.ResultTTL
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	sessCap := cfg.DynamicSessions
	if sessCap == 0 {
		sessCap = 8
	}
	if sessCap < 0 {
		sessCap = 0
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	e := &Engine{
		reg:      reg,
		metrics:  metrics,
		ttl:      ttl,
		trace:    cfg.Trace,
		log:      logger,
		journal:  cfg.Journal,
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
		sessions: make(map[sessKey]*dynamic.Maintainer),
		sessCap:  sessCap,
		queue:    make(chan *Job, depth),
		stop:     make(chan struct{}),
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	e.wg.Add(1)
	go e.janitor()
	return e
}

// dedupTarget reports whether a prior job with the same key absorbs a
// new submission. Failed and cancelled jobs are not targets:
// resubmitting retries.
func dedupTarget(j *Job) bool {
	return j.state != StateFailed && j.state != StateCancelled && j.state != StateDeadline
}

// dropKeyLocked removes job from the dedup index (if it still owns its
// key); callers hold e.mu.
func (e *Engine) dropKeyLocked(job *Job) {
	if key := job.Spec.Key(); e.byKey[key] == job {
		delete(e.byKey, key)
	}
}

// Submit registers a job for spec. If a queued, running, or completed
// job with the same idempotency key exists, that job is returned with
// deduped = true and no new execution happens.
func (e *Engine) Submit(spec JobSpec) (JobStatus, bool, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	key := spec.Key()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return JobStatus{}, false, ErrClosed
	}
	if prior, ok := e.byKey[key]; ok && dedupTarget(prior) {
		st := e.statusLocked(prior)
		e.mu.Unlock()
		e.metrics.jobSubmitted(true)
		e.trace.Append(trace.Event{Kind: trace.KindSubmit, Job: st.ID, Name: "dedup"})
		e.log.Debug("job dedup", "job", st.ID, "state", string(st.State))
		return st, true, nil
	}
	e.mu.Unlock()

	// Pin the graph for the job's whole lifetime: from this point until
	// completion the registry cannot evict it.
	acqStart := time.Now()
	h, err := e.reg.Acquire(spec.GraphID)
	if err != nil {
		return JobStatus{}, false, err
	}
	acqDur := time.Since(acqStart)

	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		ID:          "j" + strconv.FormatInt(e.nextID.Add(1), 10),
		Spec:        spec,
		state:       StateQueued,
		submittedAt: time.Now(),
		handle:      h,
		ctx:         ctx,
		cancel:      cancel,
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		h.Release()
		cancel()
		return JobStatus{}, false, ErrClosed
	}
	// Re-check the key: a racing submit may have won while we acquired.
	if prior, ok := e.byKey[key]; ok && dedupTarget(prior) {
		st := e.statusLocked(prior)
		e.mu.Unlock()
		h.Release()
		cancel()
		e.metrics.jobSubmitted(true)
		e.trace.Append(trace.Event{Kind: trace.KindSubmit, Job: st.ID, Name: "dedup"})
		e.log.Debug("job dedup", "job", st.ID, "state", string(st.State))
		return st, true, nil
	}
	// Admission control before the durable write: a full queue is the
	// common overload signal and must not cost an fsync per rejection.
	if len(e.queue) == cap(e.queue) {
		e.mu.Unlock()
		h.Release()
		cancel()
		e.metrics.admissionRejectedEvent()
		return JobStatus{}, false, ErrQueueFull
	}
	// Claim the dedup key now so concurrent equal submissions absorb
	// into this job while its accept record is being fsync'd; the job
	// is not yet visible to Status/Cancel (the caller has no id until
	// we return), so the journal I/O below runs outside the lock.
	e.byKey[key] = job
	e.mu.Unlock()

	if e.journal != nil {
		// The accept record is on disk — fsync'd — before the caller
		// sees the ack and before any worker can complete the job, so
		// "acknowledged implies eventually served" survives kill -9 and
		// completion markers never precede their accepts.
		if jerr := e.journal.Accept(job.ID, spec); jerr != nil {
			e.metrics.persistError()
			e.failUnstarted(job, "journal append failed: "+jerr.Error())
			h.Release()
			cancel()
			return JobStatus{}, false, fmt.Errorf("service: journaling job: %w", jerr)
		}
	}

	// Trace the submit before a worker can record the job's queue
	// event.
	e.trace.Append(trace.Event{Kind: trace.KindSubmit, Job: job.ID, Name: string(spec.Problem)})
	e.trace.Append(trace.Event{Kind: trace.KindCheckout, Job: job.ID, Name: spec.GraphID,
		DurMS: float64(acqDur) / float64(time.Millisecond)})
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.completeAlways(job.ID)
		e.failUnstarted(job, "engine closed")
		h.Release()
		cancel()
		return JobStatus{}, false, ErrClosed
	}
	select {
	case e.queue <- job:
	default:
		// The queue filled while the accept record was written; mark
		// the journal complete so the rejection is not "recovered" into
		// an execution the caller was told never happened.
		e.mu.Unlock()
		e.completeAlways(job.ID)
		e.failUnstarted(job, "queue full")
		h.Release()
		cancel()
		e.metrics.admissionRejectedEvent()
		return JobStatus{}, false, ErrQueueFull
	}
	e.jobs[job.ID] = job
	st := e.statusLocked(job)
	e.mu.Unlock()
	e.metrics.jobSubmitted(false)
	e.log.Debug("job submitted", "job", job.ID, "graph", spec.GraphID,
		"problem", string(spec.Problem), "algorithm", spec.Plan.Algorithm.String())
	return st, false, nil
}

// failUnstarted finalizes a job that was never enqueued: it becomes a
// resident failed job — so any caller that dedup'd onto it while its
// accept record was in flight still resolves the id — and releases its
// dedup key so the next equal submission retries.
func (e *Engine) failUnstarted(job *Job, msg string) {
	// Count the failure before it is visible, so a caller that sees
	// the failed state always finds it counted.
	e.metrics.jobFinished(job.Spec.Problem, StateFailed, false, nil, 0, 0)
	e.mu.Lock()
	job.state = StateFailed
	job.err = msg
	job.finishedAt = time.Now()
	e.jobs[job.ID] = job
	e.dropKeyLocked(job)
	e.mu.Unlock()
}

// completeAlways writes a journal completion marker regardless of drain
// state; used when an acceptance is revoked before any caller saw the
// ack, and for explicit user cancellations (which must not be undone by
// recovery).
func (e *Engine) completeAlways(id string) {
	if e.journal == nil {
		return
	}
	if err := e.journal.Complete(id); err != nil {
		e.metrics.persistError()
	}
}

// completeFinished marks a journaled job's terminal transition. Jobs
// cancelled by a drain in progress keep their accept record open on
// purpose: the drain is crash-equivalent for them, and the journal's
// promise is that an acknowledged job is eventually served.
func (e *Engine) completeFinished(id string, state JobState) {
	if e.journal == nil {
		return
	}
	if state == StateCancelled {
		e.mu.Lock()
		shuttingDown := e.shuttingDown
		e.mu.Unlock()
		if shuttingDown {
			return
		}
	}
	if err := e.journal.Complete(id); err != nil {
		e.metrics.persistError()
	}
}

// Recover re-enqueues a job the journal still owes from a previous
// process: it runs under its original id, so clients polling across the
// restart converge, and recomputation (not output replay) serves it —
// determinism makes the recomputed bytes identical. Specs that no
// longer validate or name a graph the blob tier cannot produce become
// resident failed jobs, completing their journal debt.
func (e *Engine) Recover(id string, spec JobSpec) error {
	// Keep the id generator ahead of every recovered id so fresh
	// submissions never collide with re-enqueued ones.
	if n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64); err == nil {
		for {
			cur := e.nextID.Load()
			if cur >= n || e.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	fail := func(msg string) {
		job := &Job{ID: id, Spec: spec}
		e.failUnstarted(job, msg)
		e.completeAlways(id)
	}
	if err := spec.Validate(); err != nil {
		fail("unrecoverable: " + err.Error())
		return err
	}
	h, err := e.reg.Acquire(spec.GraphID)
	if err != nil {
		fail("unrecoverable: " + err.Error())
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		ID:          id,
		Spec:        spec,
		state:       StateQueued,
		submittedAt: time.Now(),
		handle:      h,
		ctx:         ctx,
		cancel:      cancel,
	}
	e.trace.Append(trace.Event{Kind: trace.KindSubmit, Job: id, Name: "recover"})
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		h.Release()
		cancel()
		return ErrClosed
	}
	select {
	case e.queue <- job:
	default:
		e.mu.Unlock()
		h.Release()
		cancel()
		fail("unrecoverable: queue full at recovery")
		return ErrQueueFull
	}
	e.jobs[job.ID] = job
	if key := spec.Key(); e.byKey[key] == nil {
		e.byKey[key] = job
	}
	e.mu.Unlock()
	e.metrics.jobRecovered()
	e.log.Info("job recovered", "job", id, "graph", spec.GraphID, "problem", string(spec.Problem))
	return nil
}

// RetryAfterSeconds estimates how long a rejected submitter should wait
// before retrying, from the observed drain rate: the time for the
// current queue (plus the retrier) to drain at the recent pace, clamped
// to [1, 60] seconds. With no completed jobs to estimate from it
// answers 1.
func (e *Engine) RetryAfterSeconds() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	queued := len(e.queue)
	n := len(e.doneTimes)
	if n < 2 {
		return 1
	}
	span := e.doneTimes[n-1].Sub(e.doneTimes[0]).Seconds()
	if span <= 0 {
		return 1
	}
	rate := float64(n-1) / span // completions per second
	secs := int(math.Ceil(float64(queued+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// recordCompletion feeds the drain-rate ring; callers hold e.mu.
func (e *Engine) recordCompletionLocked(t time.Time) {
	const ringCap = 64
	e.doneTimes = append(e.doneTimes, t)
	if len(e.doneTimes) > ringCap {
		e.doneTimes = e.doneTimes[len(e.doneTimes)-ringCap:]
	}
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

// Cancel cancels a job. A queued job transitions to cancelled
// immediately and releases its graph pin; a running job has its
// context cancelled and transitions once its round loop observes the
// cancellation — within one round of its algorithm. Cancelling an
// already-cancelled job is a no-op; cancelling a done or failed job
// returns ErrJobFinished with the final status.
func (e *Engine) Cancel(id string) (JobStatus, error) {
	e.mu.Lock()
	job, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	switch job.state {
	case StateDone, StateFailed, StateDeadline:
		st := e.statusLocked(job)
		e.mu.Unlock()
		return st, fmt.Errorf("%w: %q is %s", ErrJobFinished, id, st.State)
	case StateCancelled:
		st := e.statusLocked(job)
		e.mu.Unlock()
		return st, nil
	case StateQueued:
		job.state = StateCancelled
		job.err = "cancelled while queued"
		job.finishedAt = time.Now()
		job.cancel()
		e.dropKeyLocked(job)
		st := e.statusLocked(job)
		// Counted before the unlock makes the state visible.
		e.metrics.jobCancelled()
		e.mu.Unlock()
		// The worker that later pops this job sees the state and skips
		// it; release the pin now so the graph is evictable immediately.
		job.handle.Release()
		// An explicit cancellation is a served outcome: mark the journal
		// so recovery does not resurrect a job the user killed.
		e.completeAlways(job.ID)
		return st, nil
	default: // running
		job.cancel()
		// Stop absorbing duplicate submissions immediately: the job is
		// doomed, and a same-key submission arriving before its round
		// loop observes the cancellation must start a fresh execution
		// rather than dedup onto a job that will never produce a result.
		e.dropKeyLocked(job)
		st := e.statusLocked(job)
		e.mu.Unlock()
		return st, nil
	}
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
			if j.state == StateQueued || j.state == StateRunning {
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
		if j.state == StateRunning || j.state == StateQueued {
			j.cancel()
		}
	}
	e.mu.Unlock()
	close(e.stop)
	close(e.queue)
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	// The worker's Solver persists across every job this worker runs:
	// frontier/flag/reservation buffers and derived priority orders are
	// allocated by the first large job and reused by all later ones on
	// same-or-smaller inputs.
	solver := greedy.NewSolver()
	for job := range e.queue {
		e.mu.Lock()
		if job.state != StateQueued {
			// Cancelled while queued; its pin is already released.
			e.mu.Unlock()
			continue
		}
		select {
		case <-e.stop:
			job.state = StateCancelled
			job.err = "engine closed"
			job.finishedAt = time.Now()
			e.mu.Unlock()
			job.handle.Release()
			continue
		default:
		}
		job.state = StateRunning
		job.startedAt = time.Now()
		e.mu.Unlock()
		queueMS := float64(job.startedAt.Sub(job.submittedAt)) / float64(time.Millisecond)
		e.trace.Append(trace.Event{Kind: trace.KindQueue, Job: job.ID, DurMS: queueMS})
		e.log.Debug("job running", "job", job.ID, "queue_ms", queueMS)
		e.run(job, solver)
	}
}

// run executes one job on the worker's solver and records its outcome.
func (e *Engine) run(job *Job, solver *greedy.Solver) {
	// A per-job deadline wraps the job's own cancellation context, so
	// timeout and explicit cancel both abort the round loop the same
	// way; which one fired is disambiguated below.
	runCtx := job.ctx
	var cancelTimeout context.CancelFunc
	if t := job.Spec.TimeoutMS; t > 0 {
		runCtx, cancelTimeout = context.WithTimeout(job.ctx, time.Duration(t)*time.Millisecond)
	}
	payload, err := e.execute(runCtx, job, solver)
	if cancelTimeout != nil {
		cancelTimeout()
	}

	now := time.Now()
	var (
		state  JobState
		errMsg string
		raw    []byte
	)
	switch {
	case err == nil:
		payload.RunMS = float64(now.Sub(job.startedAt)) / float64(time.Millisecond)
		payload.JobID = job.ID
		var merr error
		if raw, merr = json.Marshal(payload); merr != nil {
			state, errMsg = StateFailed, merr.Error()
		} else {
			state = StateDone
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The deadline state is claimed only when the job's own budget
		// fired: the outer context still live distinguishes a timeout
		// from an explicit cancel (or engine shutdown) that happened to
		// land while a deadline was also configured.
		if errors.Is(err, context.DeadlineExceeded) && cancelTimeout != nil && job.ctx.Err() == nil {
			state = StateDeadline
			errMsg = fmt.Sprintf("deadline exceeded after %dms", job.Spec.TimeoutMS)
		} else {
			state = StateCancelled
			errMsg = "cancelled while running"
		}
	default:
		state, errMsg = StateFailed, err.Error()
	}
	run := now.Sub(job.startedAt)
	e2e := now.Sub(job.submittedAt)
	runMS := float64(run) / float64(time.Millisecond)
	e2eMS := float64(e2e) / float64(time.Millisecond)
	// Trace run and done, and count the outcome, before the terminal
	// state is visible, so a client or subscriber that sees the job
	// finish finds both events and the counters that include it.
	e.trace.Append(trace.Event{Kind: trace.KindRun, Job: job.ID, DurMS: runMS})
	e.trace.Append(trace.Event{Kind: trace.KindDone, Job: job.ID, Name: string(state), DurMS: e2eMS})
	// Dynamic jobs never run the adaptive schedule (the maintainer's
	// restricted round loop has no window controller), so they must
	// not count toward adaptive_executed even if the plan carries the
	// flag.
	adaptiveRan := job.Spec.Plan.AdaptivePrefix && !job.Spec.Plan.Dynamic
	var repair *dynamic.RepairStats
	if payload.Repaired {
		repair = payload.Repair
	}
	e.metrics.jobFinished(job.Spec.Problem, state, adaptiveRan, repair, run, e2e)

	e.mu.Lock()
	job.finishedAt = now
	job.state = state
	job.err = errMsg
	if state == StateDone {
		job.result = raw
	}
	e.recordCompletionLocked(now)
	if state == StateFailed || state == StateCancelled || state == StateDeadline {
		// A terminal non-answer stops absorbing submissions right away.
		e.dropKeyLocked(job)
	}
	e.mu.Unlock()
	e.completeFinished(job.ID, state)

	job.cancel() // release the context's resources
	job.handle.Release()

	if state == StateFailed {
		e.log.Warn("job failed", "job", job.ID, "error", errMsg, "run_ms", runMS, "e2e_ms", e2eMS)
	} else {
		e.log.Debug("job finished", "job", job.ID, "state", string(state), "run_ms", runMS, "e2e_ms", e2eMS)
	}
}

// execute runs the computation under ctx (the job's context, possibly
// narrowed by its deadline); panics in the algorithm layers are
// converted to job failures rather than taking down the daemon.
func (e *Engine) execute(ctx context.Context, job *Job, solver *greedy.Solver) (payload ResultPayload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	// Chaos harness hook: a worker.run failpoint fails (or, in panic
	// mode, panics inside the recover guard above) the job before any
	// algorithm work happens.
	if ferr := fault.Inject(fault.WorkerRun); ferr != nil {
		return payload, ferr
	}
	h := job.handle
	g := h.Graph()
	plan := job.Spec.Plan
	// Observe round progress into the job's atomics: Status reads them
	// live while the round loop runs. The trace stream rides the same
	// observer, gated by one lock-free modulo test per round so an
	// unsampled round does no trace work at all.
	opts := append(plan.Options(), greedy.WithRoundObserver(func(ri greedy.RoundInfo) {
		job.progRounds.Store(ri.Round)
		job.progPrefix.Store(int64(ri.PrefixSize))
		job.progAttempted.Add(int64(ri.Attempted))
		job.progResolved.Add(int64(ri.Accepted))
		job.progInspections.Add(ri.EdgeInspections)
		profiled := ri.CheckNS|ri.CommitNS|ri.SlideNS != 0
		if profiled {
			job.progCheckNS.Add(ri.CheckNS)
			job.progCommitNS.Add(ri.CommitNS)
			job.progSlideNS.Add(ri.SlideNS)
			job.progRetryTail.Store(int64(ri.RetryTail))
		}
		if e.trace.ShouldSampleRound(ri.Round) {
			e.trace.Append(trace.Event{
				Kind:        trace.KindRound,
				Job:         job.ID,
				Round:       ri.Round,
				Prefix:      ri.PrefixSize,
				Attempted:   int64(ri.Attempted),
				Accepted:    int64(ri.Accepted),
				Inspections: ri.EdgeInspections,
			})
			if profiled {
				e.trace.Append(trace.Event{
					Kind:      trace.KindPhase,
					Job:       job.ID,
					Round:     ri.Round,
					Prefix:    ri.PrefixSize,
					CheckMS:   float64(ri.CheckNS) / 1e6,
					CommitMS:  float64(ri.CommitNS) / 1e6,
					SlideMS:   float64(ri.SlideNS) / 1e6,
					RetryTail: ri.RetryTail,
				})
			}
		}
	}))
	// Phase profiling rides the same sampling gate as the round stream:
	// when round events are being recorded, pay for the clock reads and
	// get the per-phase decomposition; otherwise the engine performs no
	// clock reads at all and the dark path stays byte-identical.
	if e.trace.RoundSampleEvery() > 0 {
		opts = append(opts, greedy.WithPhaseProfile())
	}
	payload = ResultPayload{
		GraphID: h.ID(),
		Problem: job.Spec.Problem,
		Plan:    plan,
		N:       g.NumVertices(),
		M:       g.NumEdges(),
	}
	// Dynamic plans route through the session cache: repair from an
	// ancestor version when possible, recompute (and seed a session)
	// otherwise.
	if plan.Dynamic {
		return e.executeDynamic(ctx, job, payload)
	}
	a, err := solver.Solve(ctx, job.Spec.Problem, h, opts...)
	if err != nil {
		return payload, err
	}
	payload.Stats = a.Stats
	payload.setAnswer(a)
	return payload, nil
}

// setAnswer fills p's size, checksum and members from a. A coloring's
// members are its colors; a maintained matching has no edge-id bits,
// so its checksum commits to its sorted pairs.
func (p *ResultPayload) setAnswer(a greedy.Answer) {
	p.Size, p.Checksum = a.Size, a.Checksum()
	members := a.Members
	if a.Colors != nil {
		members = a.Colors
	}
	if len(members) > memberCap || len(a.Pairs) > memberCap/2 {
		p.MembersOmitted = true
	} else {
		p.Members, p.MemberPairs = members, pairsOf(a.Pairs)
	}
}

// checkoutSession removes and returns the cached session for key, if
// any. Checkout is exclusive: a Maintainer is not safe for concurrent
// use, so it leaves the cache while a worker advances or reads it.
func (e *Engine) checkoutSession(key sessKey) *dynamic.Maintainer {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	mt, ok := e.sessions[key]
	if !ok {
		return nil
	}
	delete(e.sessions, key)
	for i, k := range e.sessLRU {
		if k == key {
			e.sessLRU = append(e.sessLRU[:i], e.sessLRU[i+1:]...)
			break
		}
	}
	return mt
}

// checkinSession parks a session under key, evicting the least
// recently used entry past the cap. If a racing worker already parked
// one for the key, the resident session wins (both describe the same
// deterministic state).
func (e *Engine) checkinSession(key sessKey, mt *dynamic.Maintainer) {
	if e.sessCap == 0 || mt == nil {
		return
	}
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if _, ok := e.sessions[key]; ok {
		return
	}
	e.sessions[key] = mt
	e.sessLRU = append(e.sessLRU, key)
	for len(e.sessLRU) > e.sessCap {
		victim := e.sessLRU[0]
		e.sessLRU = e.sessLRU[1:]
		delete(e.sessions, victim)
	}
}

// lineageSession walks the version lineage of key.graphID upward
// looking for a cached session at an ancestor. It returns the
// checked-out session, the ancestor's id, and the patch chain (oldest
// first) that advances it to key.graphID. The walk is depth-capped so
// a corrupt lineage index cannot spin a worker.
func (e *Engine) lineageSession(key sessKey) (*dynamic.Maintainer, string, [][]dynamic.Update) {
	var chain [][]dynamic.Update
	id := key.graphID
	for depth := 0; depth < 32; depth++ {
		parent, updates, ok := e.reg.Lineage(id)
		if !ok {
			return nil, "", nil
		}
		chain = append(chain, nil)
		copy(chain[1:], chain)
		chain[0] = updates
		id = parent
		if mt := e.checkoutSession(sessKey{graphID: id, problem: key.problem, seed: key.seed}); mt != nil {
			return mt, id, chain
		}
	}
	return nil, "", nil
}

// executeDynamic answers a dynamic-plan job from the session cache:
// an exact-version session is a free read; an ancestor session is
// advanced by replaying the recorded patches (change-driven frontier
// repair — the work recorded in payload.Repair stays proportional to
// the flipped damage region); otherwise the job computes from scratch
// and seeds a session for its version so later jobs on patched
// descendants can repair.
func (e *Engine) executeDynamic(ctx context.Context, job *Job, payload ResultPayload) (ResultPayload, error) {
	h := job.handle
	g := h.Graph()
	plan := job.Spec.Plan
	problem := job.Spec.Problem
	payload.Dynamic = true
	key := sessKey{graphID: h.ID(), problem: problem, seed: plan.Seed}

	mt := e.checkoutSession(key)
	resolution := "hit" // exact-version session checkout: a free read
	if mt == nil {
		prior, from, chain := e.lineageSession(key)
		if prior != nil {
			repair := dynamic.RepairStats{}
			advanced := prior
			for i, batch := range chain {
				st, err := advanced.Apply(ctx, batch)
				repair.Add(st)
				cost := pick(problem, st.MIS, st.MM)
				e.trace.Append(trace.Event{
					Kind:         trace.KindRepair,
					Job:          job.ID,
					Batch:        i + 1,
					Seeds:        cost.Seeds,
					Visited:      cost.Visited,
					Flipped:      cost.Flipped,
					FrontierPeak: cost.FrontierPeak,
					Changed:      cost.Changed,
				})
				if err != nil {
					// The session is inconsistent (cancelled mid-repair)
					// or cannot accept the patch; drop it. Propagate
					// cancellation, otherwise recompute from scratch.
					advanced = nil
					if cerr := ctx.Err(); cerr != nil {
						return payload, cerr
					}
					break
				}
			}
			// The advanced session must describe exactly this version;
			// the edge count is a cheap invariant check against a stale
			// or corrupted lineage chain.
			if advanced != nil && advanced.NumEdges() == g.NumEdges() {
				mt = advanced
				resolution = "replay"
				payload.Repaired = true
				payload.RepairedFrom = from
				payload.RepairBatches = len(chain)
				payload.Repair = &repair
				cost := pick(problem, repair.MIS, repair.MM)
				payload.Stats = greedy.Stats{Rounds: cost.Rounds, Attempts: cost.Attempts, EdgeInspections: cost.Inspections}
			}
		}
	}
	if mt == nil {
		resolution = "scratch"
		fresh, err := dynamic.NewMaintainer(ctx, g, dynamic.Config{
			MIS:   problem == ProblemMIS,
			MM:    problem == ProblemMM,
			Seed:  plan.Seed,
			Grain: plan.Grain,
		})
		if err != nil {
			return payload, err
		}
		mt = fresh
		misStats, mmStats := mt.InitStats()
		payload.Stats = pick(problem, misStats, mmStats)
	}
	// (A checkout hit at the exact version reads the maintained state
	// with zero Stats: no work was performed.)
	e.trace.Append(trace.Event{Kind: trace.KindResolve, Job: job.ID, Name: resolution,
		Batch: payload.RepairBatches})
	if problem == ProblemMIS {
		res := mt.MISResult()
		payload.setAnswer(greedy.Answer{Size: res.Size(), In: res.InSet, Members: res.Set})
	} else { // ProblemMM: Validate rejects the other dynamic problems
		pairs := mt.MatchingPairs()
		payload.setAnswer(greedy.Answer{Size: len(pairs), Pairs: pairs})
	}
	e.checkinSession(key, mt)
	return payload, nil
}

// pick returns mm for a matching session and mis for an MIS one.
func pick[T any](problem Problem, mis, mm T) T {
	if problem == ProblemMM {
		return mm
	}
	return mis
}

func pairsOf(edges []graph.Edge) [][2]int32 {
	out := make([][2]int32, len(edges))
	for i, e := range edges {
		out[i] = [2]int32{e.U, e.V}
	}
	return out
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
				finished := j.state == StateDone || j.state == StateFailed ||
					j.state == StateCancelled || j.state == StateDeadline
				if finished && !j.finishedAt.IsZero() && j.finishedAt.Before(cutoff) {
					delete(e.jobs, id)
					if e.byKey[j.Spec.Key()] == j {
						delete(e.byKey, j.Spec.Key())
					}
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
