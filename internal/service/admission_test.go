package service

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
)

// residentJobs returns the status of every job the engine holds.
func residentJobs(e *Engine) []JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []JobStatus
	for _, j := range e.jobs {
		out = append(out, e.statusLocked(j))
	}
	return out
}

// graphRefs returns the pin count of a resident graph.
func graphRefs(t *testing.T, svc *Service, id string) int {
	t.Helper()
	gi, ok := svc.Registry().Get(id)
	if !ok {
		t.Fatalf("graph %s not resident", id)
	}
	return gi.Refs
}

// TestAdmissionSubmitAfterClose: a closed engine refuses a submission
// before it journals, pins or registers anything.
func TestAdmissionSubmitAfterClose(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, DataDir: t.TempDir()})
	info := addGraph(t, svc, 500, 1)
	svc.Engine().Close()
	journal := svc.Store().Journal()
	appends, _ := journal.Counters()

	if _, _, err := svc.Engine().Submit(quickSpec(info.ID, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if got, _ := journal.Counters(); got != appends {
		t.Fatalf("Submit after Close journaled: appends %d -> %d", appends, got)
	}
	if n := journal.PendingCount(); n != 0 {
		t.Fatalf("journal owes %d jobs, want 0", n)
	}
	if jobs := residentJobs(svc.Engine()); len(jobs) != 0 {
		t.Fatalf("Submit after Close left jobs: %+v", jobs)
	}
	if refs := graphRefs(t, svc, info.ID); refs != 0 {
		t.Fatalf("graph refs = %d after a refused submit, want 0", refs)
	}
}

// TestAdmissionJournalFailure: a submission whose accept record cannot
// be written is refused with the journaling error, leaves a resident
// failed job, and releases both its dedup key and its graph pin.
func TestAdmissionJournalFailure(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, DataDir: t.TempDir()})
	info := addGraph(t, svc, 500, 1)
	spec := quickSpec(info.ID, 3)

	if err := fault.ArmSpec(fault.WALAppend + "=error"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	_, _, err := svc.Engine().Submit(spec)
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Submit under a failing journal: err = %v, want the injected append error", err)
	}
	jobs := residentJobs(svc.Engine())
	if len(jobs) != 1 || jobs[0].State != StateFailed || !strings.HasPrefix(jobs[0].Error, "journal append failed") {
		t.Fatalf("resident jobs = %+v, want one failed job with a journal append message", jobs)
	}
	if refs := graphRefs(t, svc, info.ID); refs != 0 {
		t.Fatalf("graph refs = %d after a journal failure, want 0", refs)
	}

	fault.Reset()
	st, deduped, err := svc.Engine().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || st.ID == jobs[0].ID {
		t.Fatalf("resubmission absorbed into the failed job %s (deduped=%v)", jobs[0].ID, deduped)
	}
	if st = waitDone(t, svc.Engine(), st.ID); st.State != StateDone {
		t.Fatalf("resubmission ended %s (%s), want done", st.State, st.Error)
	}
	waitRefs(t, svc, info.ID, 0)
}

// TestAdmissionRecoverUnrecoverable: a journaled job that can no longer
// run (its spec fails validation, its graph is gone, or the queue is
// full at boot) becomes a resident failed job and its journal debt is
// paid, so the next boot does not try again.
func TestAdmissionRecoverUnrecoverable(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 1, DataDir: t.TempDir()})
	info := addGraph(t, svc, 500, 1)
	journal := svc.Store().Journal()

	// Wedge the one worker on a job and fill the one queue slot behind it.
	if err := fault.ArmSpec(fault.WorkerRun + "=sleep:2s*1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	first, _, err := svc.Engine().Submit(quickSpec(info.ID, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc.Engine(), first.ID, StateRunning)
	if _, _, err := svc.Engine().Submit(quickSpec(info.ID, 2)); err != nil {
		t.Fatal(err)
	}

	invalid := quickSpec(info.ID, 3)
	invalid.Plan.PrefixFrac = 2
	cases := []struct {
		id   string
		spec JobSpec
		want string
	}{
		{"j100", invalid, "unrecoverable: service: prefix_frac"},
		{"j101", quickSpec("g-missing", 4), "unrecoverable: "},
		{"j102", quickSpec(info.ID, 5), "unrecoverable: queue full at recovery"},
	}
	for _, c := range cases {
		if err := journal.Accept(c.id, c.spec); err != nil {
			t.Fatal(err)
		}
		owed := journal.PendingCount()
		if err := svc.Engine().Recover(c.id, c.spec); err == nil {
			t.Fatalf("Recover(%s) = nil, want an error", c.id)
		}
		st, err := svc.Engine().Status(c.id)
		if err != nil {
			t.Fatalf("Recover(%s) left no resident job: %v", c.id, err)
		}
		if st.State != StateFailed || !strings.HasPrefix(st.Error, c.want) {
			t.Fatalf("recovered %s: state %s error %q, want failed with prefix %q", c.id, st.State, st.Error, c.want)
		}
		if st.SubmittedAt.IsZero() {
			t.Fatalf("recovered %s: zero submitted_at, want the recovery time", c.id)
		}
		if got := journal.PendingCount(); got != owed-1 {
			t.Fatalf("Recover(%s): journal owes %d, want %d", c.id, got, owed-1)
		}
	}
	if refs := graphRefs(t, svc, info.ID); refs != 2 {
		t.Fatalf("graph refs = %d, want 2 (the running and the queued job)", refs)
	}
}

// TestAdmissionRecoverAfterClose: the one place where the two admission
// paths differ on purpose. A closed engine refuses a recovered job, but
// its journal debt stays owed, so the next boot serves it.
func TestAdmissionRecoverAfterClose(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info := addGraph(t, svc, 500, 1)
	spec := quickSpec(info.ID, 9)
	journal := svc.Store().Journal()
	if err := journal.Accept("j50", spec); err != nil {
		t.Fatal(err)
	}
	svc.Engine().Close()
	if err := svc.Engine().Recover("j50", spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recover after Close: err = %v, want ErrClosed", err)
	}
	if n := journal.PendingCount(); n != 1 {
		t.Fatalf("journal owes %d jobs after a refused recovery, want 1", n)
	}
	if _, err := svc.Engine().Status("j50"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("refused recovery left a resident job (err = %v)", err)
	}
	if refs := graphRefs(t, svc, info.ID); refs != 0 {
		t.Fatalf("graph refs = %d after a refused recovery, want 0", refs)
	}
	svc.Close()

	next := newTestService(t, Config{Workers: 1, DataDir: dir})
	if got := next.Snapshot().Jobs.Recovered; got != 1 {
		t.Fatalf("next boot recovered %d jobs, want 1", got)
	}
	if st := waitDone(t, next.Engine(), "j50"); st.State != StateDone {
		t.Fatalf("re-served job ended %s (%s), want done", st.State, st.Error)
	}
}

// TestJobStateTerminal: the four final states, and only they, are
// terminal.
func TestJobStateTerminal(t *testing.T) {
	for _, c := range []struct {
		state JobState
		want  bool
	}{
		{StateQueued, false},
		{StateRunning, false},
		{StateDone, true},
		{StateFailed, true},
		{StateCancelled, true},
		{StateDeadline, true},
		{"", false},
		{"finished", false},
	} {
		if got := c.state.Terminal(); got != c.want {
			t.Errorf("%q.Terminal() = %v, want %v", c.state, got, c.want)
		}
	}
}
