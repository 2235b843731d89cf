package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	greedy "repro"
	"repro/internal/dynamic"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/trace"
)

// worker runs queued jobs until Drain closes the queue.
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
			job.release()
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
	if !dedupTarget(job) {
		// A terminal non-answer stops absorbing submissions right away.
		e.dropKeyLocked(job)
	}
	e.mu.Unlock()
	e.completeFinished(job.ID, state)
	job.release()

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

// memberCap bounds the membership list embedded in a result payload.
const memberCap = 1 << 20

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

func pairsOf(edges []graph.Edge) [][2]int32 {
	out := make([][2]int32, len(edges))
	for i, e := range edges {
		out[i] = [2]int32{e.U, e.V}
	}
	return out
}
