package service

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
)

// dedupTarget reports whether a prior job with the same key absorbs a
// new submission: a queued, running or done one. A job that ended
// without an answer is not a target: resubmitting retries.
func dedupTarget(j *Job) bool {
	return j.state == StateDone || !j.state.Terminal()
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
	if st, deduped, err := e.admit(key, nil); deduped || err != nil {
		return st, deduped, err
	}

	// Pin the graph for the job's whole lifetime: from this point until
	// completion the registry cannot evict it.
	acqStart := time.Now()
	h, err := e.reg.Acquire(spec.GraphID)
	if err != nil {
		return JobStatus{}, false, err
	}
	acqDur := time.Since(acqStart)
	job := newJob("j"+strconv.FormatInt(e.nextID.Add(1), 10), spec, h)
	// Re-check the key: a racing submit may have won while we acquired.
	if st, deduped, err := e.admit(key, job); deduped || err != nil {
		job.release()
		return st, deduped, err
	}

	if e.journal != nil {
		// The accept record is on disk — fsync'd — before the caller
		// sees the ack and before any worker can complete the job, so
		// "acknowledged implies eventually served" survives kill -9 and
		// completion markers never precede their accepts.
		if jerr := e.journal.Accept(job.ID, spec); jerr != nil {
			e.metrics.persistError()
			e.failUnstarted(job, "journal append failed: "+jerr.Error())
			job.release()
			return JobStatus{}, false, fmt.Errorf("service: journaling job: %w", jerr)
		}
	}

	// Trace the submit before a worker can record the job's queue
	// event.
	e.trace.Append(trace.Event{Kind: trace.KindSubmit, Job: job.ID, Name: string(spec.Problem)})
	e.trace.Append(trace.Event{Kind: trace.KindCheckout, Job: job.ID, Name: spec.GraphID,
		DurMS: float64(acqDur) / float64(time.Millisecond)})
	st, err := e.enqueue(job)
	if err != nil {
		// The engine closed or the queue filled while the accept record
		// was written; mark the journal complete so the rejection is not
		// "recovered" into an execution the caller was told never
		// happened.
		e.completeAlways(job.ID)
		msg := "engine closed"
		if err == ErrQueueFull {
			msg = "queue full"
			e.metrics.admissionRejectedEvent()
		}
		e.failUnstarted(job, msg)
		job.release()
		return JobStatus{}, false, err
	}
	e.metrics.jobSubmitted(false)
	e.log.Debug("job submitted", "job", job.ID, "graph", spec.GraphID,
		"problem", string(spec.Problem), "algorithm", spec.Plan.Algorithm.String())
	return st, false, nil
}

// admit is Submit's check under the lock, before and after it pins the
// graph: a closed engine refuses, and a job that absorbs key (see
// dedupTarget) answers the submission. Given job, admit then refuses a
// full queue before the accept record costs an fsync — a full queue is
// the common overload signal — and claims key for job, so equal
// submissions absorb into it while the record is written. The job
// stays invisible to Status and Cancel (the caller has no id yet)
// until enqueue registers it.
func (e *Engine) admit(key string, job *Job) (JobStatus, bool, error) {
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
	if job != nil {
		if len(e.queue) == cap(e.queue) {
			e.mu.Unlock()
			e.metrics.admissionRejectedEvent()
			return JobStatus{}, false, ErrQueueFull
		}
		e.byKey[key] = job
	}
	e.mu.Unlock()
	return JobStatus{}, false, nil
}

// enqueue is the one way into the queue, for Submit and Recover alike:
// it refuses a closed engine or a full queue, and otherwise queues and
// registers job and claims its dedup key unless another job holds it.
func (e *Engine) enqueue(job *Job) (JobStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return JobStatus{}, ErrClosed
	}
	select {
	case e.queue <- job:
	default:
		return JobStatus{}, ErrQueueFull
	}
	e.jobs[job.ID] = job
	if key := job.Spec.Key(); e.byKey[key] == nil {
		e.byKey[key] = job
	}
	return e.statusLocked(job), nil
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
// longer validate, name a graph the blob tier cannot produce, or find
// the queue full become resident failed jobs, submitted at the recovery
// time, completing their journal debt. A closed engine refuses the job
// and leaves the debt owed, so the next boot serves it.
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
	fail := func(msg string, err error) error {
		e.failUnstarted(&Job{ID: id, Spec: spec, submittedAt: time.Now()}, "unrecoverable: "+msg)
		e.completeAlways(id)
		return err
	}
	if err := spec.Validate(); err != nil {
		return fail(err.Error(), err)
	}
	h, err := e.reg.Acquire(spec.GraphID)
	if err != nil {
		return fail(err.Error(), err)
	}
	job := newJob(id, spec, h)
	e.trace.Append(trace.Event{Kind: trace.KindSubmit, Job: id, Name: "recover"})
	if _, err := e.enqueue(job); err != nil {
		job.release()
		if err == ErrClosed {
			return err
		}
		return fail("queue full at recovery", err)
	}
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

// recordCompletionLocked feeds the drain-rate ring; callers hold e.mu.
func (e *Engine) recordCompletionLocked(t time.Time) {
	const ringCap = 64
	e.doneTimes = append(e.doneTimes, t)
	if len(e.doneTimes) > ringCap {
		e.doneTimes = e.doneTimes[len(e.doneTimes)-ringCap:]
	}
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
	switch {
	case job.state.Terminal():
		st := e.statusLocked(job)
		e.mu.Unlock()
		if st.State == StateCancelled {
			return st, nil
		}
		return st, fmt.Errorf("%w: %q is %s", ErrJobFinished, id, st.State)
	case job.state == StateQueued:
		job.state = StateCancelled
		job.err = "cancelled while queued"
		job.finishedAt = time.Now()
		e.dropKeyLocked(job)
		st := e.statusLocked(job)
		// Counted before the unlock makes the state visible.
		e.metrics.jobCancelled()
		e.mu.Unlock()
		// The worker that later pops this job sees the state and skips
		// it; release the pin now so the graph is evictable immediately.
		job.release()
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
