package persist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// FuzzWALDecode asserts the journal decoder's crash-safety contract:
// arbitrary bytes — truncated, bit-flipped, or pure garbage — never
// panic or demand absurd memory, and any structurally valid prefix is
// recovered intact.
func FuzzWALDecode(f *testing.F) {
	// Seed with a well-formed journal image.
	var buf bytes.Buffer
	_ = writeRecord(&buf, journalMagic)
	for _, ent := range []walEntry{
		{Op: "accept", Job: "j1", Spec: json.RawMessage(`{"graph_id":"gA"}`)},
		{Op: "accept", Job: "j2", Spec: json.RawMessage(`{"graph_id":"gB"}`)},
		{Op: "done", Job: "j1"},
	} {
		raw, _ := json.Marshal(ent)
		_ = writeRecord(&buf, raw)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a journal"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	// Header claiming a huge payload with no bytes behind it.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		pending := DecodeJournal(data)
		for _, p := range pending {
			if p.ID == "" {
				t.Fatal("decoded a pending job with empty id")
			}
		}
		// Decoding a valid image prefixed by the fuzz corpus's bytes is
		// not meaningful; but re-decoding the decoder's own output must
		// be stable: rebuild a journal from the pending set and check
		// the round trip.
		var rebuilt bytes.Buffer
		_ = writeRecord(&rebuilt, journalMagic)
		for _, p := range pending {
			raw, err := json.Marshal(walEntry{Op: "accept", Job: p.ID, Spec: p.Spec})
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			_ = writeRecord(&rebuilt, raw)
		}
		again := DecodeJournal(rebuilt.Bytes())
		if len(again) != len(pending) {
			t.Fatalf("round trip changed pending count: %d -> %d", len(pending), len(again))
		}
		for i := range again {
			if again[i].ID != pending[i].ID {
				t.Fatalf("round trip reordered: %q -> %q", pending[i].ID, again[i].ID)
			}
		}
	})
}

// FuzzBlobDecode asserts the blob decoder never panics or OOMs on
// arbitrary input, and that damage is always reported as an error —
// never as a silently different graph.
func FuzzBlobDecode(f *testing.F) {
	g := graph.Random(50, 150, 7)
	var buf bytes.Buffer
	meta := BlobMeta{ID: "gfuzz", N: g.NumVertices(), M: g.NumEdges(), Bytes: graphBytesFor(g)}
	metaRaw, _ := json.Marshal(meta)
	var payload bytes.Buffer
	_ = graph.WriteBinary(&payload, g)
	_ = writeRecord(&buf, blobMagic)
	_ = writeRecord(&buf, metaRaw)
	_ = writeRecord(&buf, payload.Bytes())
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte{})
	f.Add([]byte("not a blob"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-20] ^= 0x04
	f.Add(flipped)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, dg, err := DecodeBlob(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must be internally consistent.
		if dg == nil {
			t.Fatal("nil graph with nil error")
		}
		if dg.NumVertices() != m.N || dg.NumEdges() != m.M {
			t.Fatalf("decoded graph shape (n=%d m=%d) disagrees with meta (n=%d m=%d)",
				dg.NumVertices(), dg.NumEdges(), m.N, m.M)
		}
	})
}

// lineageImage encodes recs as a lineage log: the magic record, then
// one JSON record per derivation, as LineageLog.Append writes them.
func lineageImage(t testing.TB, recs []LineageRecord) []byte {
	var buf bytes.Buffer
	_ = writeRecord(&buf, lineageMagic)
	for _, rec := range recs {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		_ = writeRecord(&buf, raw)
	}
	return buf.Bytes()
}

// FuzzLineageDecode asserts the lineage decoder's contract on arbitrary
// bytes, as OpenLineage meets them on every boot: it never panics, its
// valid offset lies within the image, re-encoding the records it returns
// decodes to the same records, and every truncation of the image decodes
// to a prefix of them.
func FuzzLineageDecode(f *testing.F) {
	valid := lineageImage(f, []LineageRecord{
		{Child: "g2", Parent: "g1", Updates: []LineageUpdate{{Op: "add", U: 1, V: 7}, {Op: "del", U: 0, V: 3}}},
		{Child: "g3", Parent: "g2", Updates: []LineageUpdate{}},
		{Child: "g4", Parent: "g2"},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("not a lineage log"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add(append(lineageImage(f, nil), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off := DecodeLineage(data)
		if off < 0 || off > len(data) {
			t.Fatalf("valid offset %d outside an image of %d bytes", off, len(data))
		}
		if len(recs) > 0 && off == 0 {
			t.Fatalf("%d records decoded from an empty valid prefix", len(recs))
		}
		image := lineageImage(t, recs)
		again, againOff := DecodeLineage(image)
		if againOff != len(image) || len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("round trip of %d records decoded %d records, valid to %d of %d bytes", len(recs), len(again), againOff, len(image))
		}
		// Every cut through the valid prefix; past it, cuts at doubling
		// distances, since each one only shortens the record that
		// stopped the full decode, and such a record may claim a large
		// payload that every decode of it starts to allocate.
		for cut, step := 0, 1; cut <= len(data); cut += step {
			if cut > off {
				step *= 2
			}
			prefix, prefixOff := DecodeLineage(data[:cut])
			if prefixOff > cut || len(prefix) > len(recs) || (len(prefix) > 0 && !reflect.DeepEqual(prefix, recs[:len(prefix)])) {
				t.Fatalf("truncation to %d bytes decoded %d records (valid to %d), not a prefix of the image's %d", cut, len(prefix), prefixOff, len(recs))
			}
		}
	})
}

func graphBytesFor(g *graph.Graph) int64 {
	offsets, adj := g.Raw()
	return int64(len(offsets))*8 + int64(len(adj))*4
}

// DecodeJournal replays a raw journal image and returns the pending
// set, in acceptance order, as OpenJournal does: corrupt tails are
// tolerated exactly as on open, and the valid prefix wins.
func DecodeJournal(raw []byte) []PendingJob {
	j := &Journal{pending: make(map[string]json.RawMessage)}
	j.replay(raw)
	out := make([]PendingJob, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, PendingJob{ID: id, Spec: j.pending[id]})
	}
	return out
}
