package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// The lineage log remembers how patched graph versions were derived
// (child ← parent + update batch), so the engine's dynamic-session
// repair survives a restart: without it every post-restart dynamic job
// recomputes from scratch — still correct, just slower. Because
// lineage is an optimization, appends are not fsync'd; a lost tail
// only costs repair opportunities. The log keeps what its owner
// retains: Rewrite replaces it with the records still wanted.

// lineageMagic is the first record of a lineage log file.
var lineageMagic = []byte("greedylineage\x01")

// LineageUpdate is one edge update of a recorded patch, mirroring
// dynamic.Update without importing it (persist stays algorithm-free).
type LineageUpdate struct {
	Op string `json:"op"` // "add" | "del"
	U  int32  `json:"u"`
	V  int32  `json:"v"`
}

// LineageRecord is one derivation: Child was produced by applying
// Updates to Parent.
type LineageRecord struct {
	Child   string          `json:"child"`
	Parent  string          `json:"parent"`
	Updates []LineageUpdate `json:"updates"`
}

// LineageLog is the derivation log: appended to, and rewritten whole.
type LineageLog struct {
	mu  sync.Mutex
	log logFile
}

// OpenLineage opens (creating if needed) the log at path and returns
// the replayed records, oldest first. Records after damage are not
// replayed: a missing, foreign or damaged log is rewritten to its valid
// records first, so appends frame correctly.
func OpenLineage(path string) (*LineageLog, []LineageRecord, error) {
	raw, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		raw = nil
	case err != nil:
		return nil, nil, fmt.Errorf("persist: reading lineage log: %w", err)
	}
	recs, valid := DecodeLineage(raw)
	l := &LineageLog{log: logFile{path: path}}
	if valid == 0 || valid < len(raw) {
		err = rewriteLog(&l.log, lineageMagic, recs)
	} else {
		err = l.log.reopen()
	}
	if err != nil {
		return nil, nil, err
	}
	return l, recs, nil
}

// Rewrite atomically replaces the log with recs, oldest first; later
// appends follow them.
func (l *LineageLog) Rewrite(recs []LineageRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log.w == nil {
		return fmt.Errorf("persist: lineage log closed")
	}
	return rewriteLog(&l.log, lineageMagic, recs)
}

// DecodeLineage replays a raw lineage image, returning the valid
// records and the byte offset of the valid prefix. Exported for the
// fuzz harness.
func DecodeLineage(raw []byte) ([]LineageRecord, int) {
	var recs []LineageRecord
	valid := replayLog(raw, lineageMagic, func(payload []byte) bool {
		var rec LineageRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Child == "" || rec.Parent == "" {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	return recs, valid
}

// Append records one derivation. Flushed but not fsync'd.
func (l *LineageLog) Append(rec LineageRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.append(raw)
}

// Close flushes and closes the log.
func (l *LineageLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.close()
}
