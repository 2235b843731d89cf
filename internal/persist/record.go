// Package persist is greedyd's crash-safe durability layer: a
// checksummed record format, a content-addressed graph blob store, an
// append-only job journal, and a patch-lineage log, all rooted in one
// data directory.
//
// The design leans on the paper's determinism guarantee the same way
// the serving layer does: a job is fully described by its spec, and an
// equal spec recomputes byte-identical results on any machine at any
// thread count. Durability therefore only has to preserve *inputs*
// (graphs, accepted job specs, patch lineage) — results are recovered
// by recomputation, which is sound where replaying stored outputs
// would merely be hopeful.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record format: every durable file is a sequence of
//
//	u32 payload length (little-endian)
//	u32 CRC32-Castagnoli of the payload
//	payload bytes
//
// A reader that hits a short header at a record boundary sees a clean
// io.EOF; anything else — short payload, implausible length, checksum
// mismatch — is ErrCorrupt, and replay recovers the valid prefix.

// recordHeaderLen is the fixed per-record framing overhead.
const recordHeaderLen = 8

// maxRecordLen caps a single record's payload. Large enough for the
// biggest graph blob the service accepts (uploads are capped well
// below), small enough that a garbage length field cannot demand an
// absurd allocation.
const maxRecordLen = 1 << 31

// readChunk bounds each allocation step while reading a payload, so a
// corrupt length field costs at most one chunk of memory beyond the
// bytes actually present in the file.
const readChunk = 1 << 20

// ErrCorrupt marks a structurally broken record: truncated mid-record,
// an implausible length, or a checksum mismatch.
var ErrCorrupt = errors.New("persist: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeRecord appends one framed record to w.
func writeRecord(w io.Writer, payload []byte) error {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readRecord reads the next record from r, reusing buf's storage when
// it is large enough. It returns io.EOF at a clean record boundary and
// a wrapped ErrCorrupt for everything structurally wrong. Payloads are
// read in bounded chunks so a lying length field never provokes a
// single huge allocation.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if uint64(n) > maxRecordLen {
		return nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	need := int(n)
	if cap(buf) >= need {
		buf = buf[:0]
	} else {
		buf = make([]byte, 0, min(need, readChunk))
	}
	for len(buf) < need {
		chunk := min(need-len(buf), readChunk)
		start := len(buf)
		if cap(buf) < start+chunk {
			grown := make([]byte, start, min(need, cap(buf)*2+chunk))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:start+chunk]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes): %v", ErrCorrupt, start, need, err)
		}
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return buf, nil
}
