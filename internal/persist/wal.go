package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fault"
)

// The job journal is an append-only WAL of accepted job specs. One
// record per event:
//
//	{"op":"accept","job":"j17","spec":{...}}   fsync'd before the 202
//	{"op":"done","job":"j17"}                  appended, not fsync'd
//
// The asymmetry is deliberate: losing an accept record would break the
// acknowledgment contract ("202 means eventually served"), so accepts
// hit disk before the handler answers. Losing a done record merely
// means a completed job is recomputed on recovery — byte-identical by
// the determinism guarantee, so the only cost is wasted work, and the
// fsync saved on every completion is worth it.
//
// Replay uses set semantics (pending = accepts − dones) rather than
// ordering assumptions: a worker can finish job A after job B was
// accepted, so done records legally interleave arbitrarily with
// accepts.

// journalMagic is the first record of a journal file.
var journalMagic = []byte("greedyjournal\x01")

// walEntry is the JSON payload of one journal record.
type walEntry struct {
	Op   string          `json:"op"` // "accept" | "done"
	Job  string          `json:"job"`
	Spec json.RawMessage `json:"spec,omitempty"`
}

// PendingJob is one acknowledged-but-unfinished job recovered from the
// journal: its original id (so GET /v1/jobs/{id} survives the restart)
// and its spec, opaque to this package.
type PendingJob struct {
	ID   string
	Spec json.RawMessage
}

// compactThreshold triggers an in-place journal rewrite: once at least
// this many done records have accumulated and they outnumber the
// pending set, the journal is rewritten with only the pending accepts.
const compactThreshold = 4096

// Journal is the durable job WAL. All methods are safe for concurrent
// use; Accept serializes its append+fsync under one mutex, which also
// batches nothing — the contract is strict write-ahead, one fsync per
// acknowledgment.
type Journal struct {
	mu  sync.Mutex
	log logFile

	pending map[string]json.RawMessage // accepted, not yet done
	order   []string                   // accept order of pending ids
	dones   int                        // done records in the live file

	appends     int64 // accept records written (metrics)
	compactions int64 // journal rewrites performed (metrics)
}

// OpenJournal opens (creating if needed) the journal at path, replays
// it, and compacts away any recovered-as-done garbage plus any corrupt
// tail. The returned pending list is every acknowledged job the
// process died owing, in acceptance order.
func OpenJournal(path string) (*Journal, []PendingJob, error) {
	j := &Journal{log: logFile{path: path}, pending: make(map[string]json.RawMessage)}
	raw, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		raw = nil
	case err != nil:
		return nil, nil, fmt.Errorf("persist: reading journal: %w", err)
	}
	j.replay(raw)
	// A rewrite on open serves two purposes: it truncates a corrupt
	// tail and drops completed entries, so a crash loop cannot grow the
	// journal without bound.
	if err := j.rewriteLocked(); err != nil {
		return nil, nil, err
	}
	pending := make([]PendingJob, 0, len(j.order))
	for _, id := range j.order {
		pending = append(pending, PendingJob{ID: id, Spec: j.pending[id]})
	}
	return j, pending, nil
}

// replay scans raw, populating the pending set. Corruption mid-file
// stops the scan: everything after the first damaged record is
// untrusted (lengths no longer frame reliably).
func (j *Journal) replay(raw []byte) {
	replayLog(raw, journalMagic, func(payload []byte) bool {
		var ent walEntry
		if err := json.Unmarshal(payload, &ent); err != nil || ent.Job == "" {
			return false
		}
		switch ent.Op {
		case "accept":
			if _, ok := j.pending[ent.Job]; !ok {
				j.order = append(j.order, ent.Job)
			}
			j.pending[ent.Job] = append(json.RawMessage(nil), ent.Spec...)
		case "done":
			j.dropPendingLocked(ent.Job)
		default:
			return false
		}
		return true
	})
}

func (j *Journal) dropPendingLocked(id string) {
	if _, ok := j.pending[id]; !ok {
		return
	}
	delete(j.pending, id)
	for i, k := range j.order {
		if k == id {
			j.order = append(j.order[:i], j.order[i+1:]...)
			break
		}
	}
}

// rewriteLocked replaces the journal file with magic + one accept per
// pending job, via temp+fsync+rename. Callers hold j.mu (or, on open,
// have exclusive ownership).
func (j *Journal) rewriteLocked() error {
	if err := os.MkdirAll(filepath.Dir(j.log.path), 0o755); err != nil {
		return err
	}
	accepts := make([]walEntry, len(j.order))
	for i, id := range j.order {
		accepts[i] = walEntry{Op: "accept", Job: id, Spec: j.pending[id]}
	}
	if err := rewriteLog(&j.log, journalMagic, accepts); err != nil {
		return err
	}
	j.dones = 0
	return nil
}

// Accept journals an accepted job spec and fsyncs before returning:
// when Accept returns nil the acknowledgment is durable.
func (j *Journal) Accept(id string, spec any) error {
	if err := fault.Inject(fault.WALAppend); err != nil {
		return err
	}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(walEntry{Op: "accept", Job: id, Spec: rawSpec})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.append(raw); err != nil {
		return err
	}
	if err := syncFile(j.log.f); err != nil {
		return err
	}
	if _, ok := j.pending[id]; !ok {
		j.order = append(j.order, id)
	}
	j.pending[id] = rawSpec
	j.appends++
	return nil
}

// Complete journals a completion marker. Not fsync'd: a lost marker
// costs one redundant (byte-identical) recomputation on recovery.
// Opportunistically compacts once enough done records accumulate.
func (j *Journal) Complete(id string) error {
	raw, err := json.Marshal(walEntry{Op: "done", Job: id})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.append(raw); err != nil {
		return err
	}
	j.dropPendingLocked(id)
	j.dones++
	if j.dones >= compactThreshold && j.dones > len(j.pending) {
		if err := j.rewriteLocked(); err != nil {
			return err
		}
		j.compactions++
	}
	return nil
}

// PendingCount returns the number of acknowledged-but-unfinished jobs
// the journal currently tracks.
func (j *Journal) PendingCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Counters returns (accept appends, compactions) for metrics.
func (j *Journal) Counters() (appends, compactions int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.compactions
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.close()
}
