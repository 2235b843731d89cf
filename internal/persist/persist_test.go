package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 3<<20)}
	for _, p := range payloads {
		if err := writeRecord(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	for i, want := range payloads {
		got, err := readRecord(r, scratch)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
		scratch = got
	}
	if _, err := readRecord(r, scratch); err != io.EOF {
		t.Fatalf("want clean EOF at boundary, got %v", err)
	}
}

func TestRecordCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRecord(&buf, []byte("the payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncation anywhere except offset 0 (clean EOF) is ErrCorrupt.
	for cut := 1; cut < len(full); cut++ {
		_, err := readRecord(bytes.NewReader(full[:cut]), nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
	// A bit flip in the payload breaks the checksum; in the header it
	// breaks framing or the checksum. Either way: ErrCorrupt.
	for i := range full {
		flipped := append([]byte(nil), full...)
		flipped[i] ^= 0x40
		if _, err := readRecord(bytes.NewReader(flipped), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

func TestBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := newBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(500, 2000, 42)
	meta := BlobMeta{ID: "gtest", Label: "unit", N: g.NumVertices(), M: g.NumEdges(), Bytes: 12345}
	if err := b.Put(meta, g); err != nil {
		t.Fatal(err)
	}
	if !b.Has("gtest") {
		t.Fatal("Has = false after Put")
	}
	got, g2, err := b.Load("gtest")
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta mismatch: %+v vs %+v", got, meta)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("graph shape mismatch")
	}
	o1, a1 := g.Raw()
	o2, a2 := g2.Raw()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("offset %d differs", i)
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("adj %d differs", i)
		}
	}

	metas, skipped, err := b.Metas()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(metas) != 1 || metas[0] != meta {
		t.Fatalf("Metas = %+v skipped %v", metas, skipped)
	}
}

func TestBlobPutIdempotentAndBadIDs(t *testing.T) {
	dir := t.TempDir()
	b, err := newBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(10, 20, 1)
	meta := BlobMeta{ID: "gx", N: g.NumVertices(), M: g.NumEdges()}
	if err := b.Put(meta, g); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(meta, g); err != nil {
		t.Fatalf("second Put: %v", err)
	}
	for _, bad := range []string{"", "a/b", `a\b`, "../x"} {
		if err := b.Put(BlobMeta{ID: bad, N: 10, M: 20}, g); err == nil {
			t.Errorf("Put accepted id %q", bad)
		}
	}
}

func TestBlobCorruptFileSkippedInMetas(t *testing.T) {
	dir := t.TempDir()
	b, err := newBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(20, 40, 3)
	if err := b.Put(BlobMeta{ID: "good", N: g.NumVertices(), M: g.NumEdges()}, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.blob"), []byte("not a blob at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	metas, skipped, err := b.Metas()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].ID != "good" {
		t.Fatalf("metas = %+v", metas)
	}
	if len(skipped) != 1 || skipped[0] != "bad.blob" {
		t.Fatalf("skipped = %v", skipped)
	}
	if _, _, err := b.Load("bad"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(bad) = %v, want ErrCorrupt", err)
	}
}

type testSpec struct {
	Graph string `json:"graph"`
	Seed  int    `json:"seed"`
}

func TestJournalAcceptCompleteReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	for i, id := range []string{"j1", "j2", "j3"} {
		if err := j.Accept(id, testSpec{Graph: "gA", Seed: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Complete("j2"); err != nil {
		t.Fatal(err)
	}
	if got := j.PendingCount(); got != 2 {
		t.Fatalf("PendingCount = %d, want 2", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 2 || pending[0].ID != "j1" || pending[1].ID != "j3" {
		t.Fatalf("pending = %+v", pending)
	}
	var spec testSpec
	if err := json.Unmarshal(pending[1].Spec, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Graph != "gA" || spec.Seed != 2 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestJournalCorruptTailRecoversPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("j1", testSpec{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("j2", testSpec{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Append garbage, then flip a bit mid-file: replay must keep the
	// valid prefix and drop the rest without error.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	garbled := append(append([]byte(nil), raw...), 0xDE, 0xAD, 0xBE)
	if err := os.WriteFile(path, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(pending) != 2 {
		t.Fatalf("pending after tail garbage = %d, want 2", len(pending))
	}

	// Damage the second record: only the first survives.
	garbled = append([]byte(nil), raw...)
	garbled[len(garbled)-3] ^= 0x01
	if err := os.WriteFile(path, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending after mid damage = %+v", pending)
	}
}

// TestJournalTruncatedLastRecord cuts a journal at every byte offset of
// its last record, as a crash mid-append would. Each cut must recover
// the pending set the earlier records denote, in acceptance order, and
// so must a second open of the file the first open rewrote; the whole
// file also recovers the last record. The pending sets come from the
// operation list, not from the replay code.
func TestJournalTruncatedLastRecord(t *testing.T) {
	type op struct {
		accept bool
		id     string
	}
	pendingAfter := func(ops []op) []string {
		var ids []string
		for _, o := range ops {
			if o.accept {
				ids = append(ids, o.id)
			} else {
				ids = slices.DeleteFunc(ids, func(id string) bool { return id == o.id })
			}
		}
		return ids
	}
	earlier := []op{{true, "j1"}, {true, "j2"}, {false, "j1"}, {true, "j3"}, {true, "j4"}, {false, "j3"}}
	for _, last := range []op{{true, "j5"}, {false, "j2"}} {
		dir := t.TempDir()
		path := filepath.Join(dir, "jobs.wal")
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		ops := append(slices.Clone(earlier), last)
		start := 0
		for i, o := range ops {
			if i == len(ops)-1 {
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				start = int(info.Size())
			}
			if o.accept {
				err = j.Accept(o.id, testSpec{Graph: o.id})
			} else {
				err = j.Complete(o.id)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := start; cut <= len(raw); cut++ {
			want := pendingAfter(ops[:len(ops)-1])
			if cut == len(raw) {
				want = pendingAfter(ops)
			}
			cutPath := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
			if err := os.WriteFile(cutPath, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			for open := 1; open <= 2; open++ {
				jc, pending, err := OpenJournal(cutPath)
				if err != nil {
					t.Fatal(err)
				}
				jc.Close()
				var got []string
				for _, p := range pending {
					var spec testSpec
					if err := json.Unmarshal(p.Spec, &spec); err != nil || spec.Graph != p.ID {
						t.Fatalf("last op %+v, cut at %d, open %d: %s has spec %s", last, cut, open, p.ID, p.Spec)
					}
					got = append(got, p.ID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("last op %+v, cut at %d of %d..%d, open %d: pending %v, want %v",
						last, cut, start, len(raw), open, got, want)
				}
			}
		}
	}
}

func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < compactThreshold+10; i++ {
		id := "j" + string(rune('A'+i%26)) + string(rune('0'+i%10)) + itoa(i)
		if err := j.Accept(id, testSpec{Seed: i}); err != nil {
			t.Fatal(err)
		}
		if err := j.Complete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, compactions := j.Counters(); compactions == 0 {
		t.Fatal("no compaction after threshold dones")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Everything completed: the compacted journal is magic-only plus a
	// few post-compaction records.
	if info.Size() > 1<<14 {
		t.Fatalf("journal is %d bytes after full completion; compaction ineffective", info.Size())
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestLineageRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lineage.wal")
	l, recs, err := OpenLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	want := LineageRecord{Child: "gB", Parent: "gA", Updates: []LineageUpdate{{Op: "add", U: 1, V: 2}}}
	if err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, recs, err := OpenLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 1 || recs[0].Child != "gB" || recs[0].Parent != "gA" || len(recs[0].Updates) != 1 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestStoreOpenCloseReopen(t *testing.T) {
	dir := t.TempDir()
	st, pending, lineage, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || len(lineage) != 0 {
		t.Fatalf("fresh store: pending=%d lineage=%d", len(pending), len(lineage))
	}
	g := graph.Random(100, 300, 9)
	if err := st.Blobs().Put(BlobMeta{ID: "g1", N: 100, M: g.NumEdges()}, g); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal().Accept("j9", testSpec{Graph: "g1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Lineage().Append(LineageRecord{Child: "g2", Parent: "g1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, pending, lineage, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(pending) != 1 || pending[0].ID != "j9" {
		t.Fatalf("pending = %+v", pending)
	}
	if len(lineage) != 1 || lineage[0].Child != "g2" {
		t.Fatalf("lineage = %+v", lineage)
	}
	if !st2.Blobs().Has("g1") {
		t.Fatal("blob lost across reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs")); err != nil {
		t.Fatal("graphs dir missing")
	}
}

func TestFailpointsInPersist(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	st, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := fault.ArmSpec("persist.wal.append=error*1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal().Accept("j1", testSpec{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Accept under failpoint = %v, want ErrInjected", err)
	}
	// Journal state unchanged: the failed accept journaled nothing.
	if got := st.Journal().PendingCount(); got != 0 {
		t.Fatalf("PendingCount = %d after failed accept", got)
	}
	if err := st.Journal().Accept("j1", testSpec{}); err != nil {
		t.Fatalf("Accept after failpoint exhausted = %v", err)
	}

	g := graph.Random(10, 20, 1)
	if err := fault.ArmSpec("persist.blob.write=error*1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Blobs().Put(BlobMeta{ID: "gF", N: 10, M: g.NumEdges()}, g); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put under failpoint = %v", err)
	}
	if st.Blobs().Has("gF") {
		t.Fatal("failed Put left a blob behind")
	}
	if err := st.Blobs().Put(BlobMeta{ID: "gF", N: 10, M: g.NumEdges()}, g); err != nil {
		t.Fatalf("Put after failpoint exhausted = %v", err)
	}
}

// Has reports whether a committed blob exists for id.
func (b *BlobStore) Has(id string) bool {
	_, err := os.Stat(b.path(id))
	return err == nil
}
