package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
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
