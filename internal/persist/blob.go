package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/graph"
)

// BlobMeta is the head record of a graph blob: everything the registry
// needs to index a graph without loading its CSR arrays.
type BlobMeta struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Bytes int64  `json:"bytes"`
}

// blobMagic is the first record of every blob file: a format sentinel
// so a foreign file in the graphs directory is rejected, with a
// version byte for future evolution.
var blobMagic = []byte("greedyblob\x01")

// blobSuffix names blob files; anything else in the directory is
// ignored (temp files carry a different suffix until renamed).
const blobSuffix = ".blob"

// BlobStore is the content-addressed graph tier on disk: one file per
// graph id, each a magic record, a JSON BlobMeta record, and the
// graph's binary serialization. Files are written to a temp name,
// fsynced, and renamed, so a crash mid-write never leaves a partial
// blob under a live name.
type BlobStore struct {
	dir string
}

// newBlobStore creates/opens the blob directory.
func newBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating blob dir: %w", err)
	}
	return &BlobStore{dir: dir}, nil
}

func (b *BlobStore) path(id string) string {
	return filepath.Join(b.dir, id+blobSuffix)
}

// Put durably stores g under meta.ID. Present blobs are left alone
// (content addressing: same id means same bytes). The file hits disk —
// fsync on both the file and its directory — before Put returns.
func (b *BlobStore) Put(meta BlobMeta, g *graph.Graph) error {
	if meta.ID == "" || strings.ContainsAny(meta.ID, `/\`) {
		return fmt.Errorf("persist: bad blob id %q", meta.ID)
	}
	final := b.path(meta.ID)
	if _, err := os.Stat(final); err == nil {
		return nil
	}
	if err := fault.Inject(fault.BlobWrite); err != nil {
		return err
	}
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	payload.Grow(int(meta.Bytes) + 64)
	if err := graph.WriteBinary(&payload, g); err != nil {
		return err
	}
	f, err := os.CreateTemp(b.dir, meta.ID+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	for _, rec := range [][]byte{blobMagic, metaRaw, payload.Bytes()} {
		if err := writeRecord(f, rec); err != nil {
			cleanup()
			return err
		}
	}
	if err := syncFile(f); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(b.dir)
}

// Load reads the graph stored under id.
func (b *BlobStore) Load(id string) (BlobMeta, *graph.Graph, error) {
	f, err := os.Open(b.path(id))
	if err != nil {
		return BlobMeta{}, nil, err
	}
	defer f.Close()
	meta, g, err := DecodeBlob(f)
	if err != nil {
		return BlobMeta{}, nil, fmt.Errorf("persist: blob %s: %w", id, err)
	}
	return meta, g, nil
}

// DecodeBlob decodes a full blob stream: magic, meta, graph. Exported
// for the fuzz harness; Load wraps it with file handling.
func DecodeBlob(r io.Reader) (BlobMeta, *graph.Graph, error) {
	meta, err := decodeBlobHead(r)
	if err != nil {
		return BlobMeta{}, nil, err
	}
	raw, err := readRecord(r, nil)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: missing graph record", ErrCorrupt)
		}
		return BlobMeta{}, nil, err
	}
	g, err := graph.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		return BlobMeta{}, nil, fmt.Errorf("%w: graph payload: %v", ErrCorrupt, err)
	}
	if g.NumVertices() != meta.N || g.NumEdges() != meta.M {
		return BlobMeta{}, nil, fmt.Errorf("%w: meta says n=%d m=%d, graph has n=%d m=%d",
			ErrCorrupt, meta.N, meta.M, g.NumVertices(), g.NumEdges())
	}
	return meta, g, nil
}

// decodeBlobHead reads the magic and meta records only — the cheap
// part rehydration needs for every blob on boot.
func decodeBlobHead(r io.Reader) (BlobMeta, error) {
	magic, err := readRecord(r, nil)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: empty blob", ErrCorrupt)
		}
		return BlobMeta{}, err
	}
	if !bytes.Equal(magic, blobMagic) {
		return BlobMeta{}, fmt.Errorf("%w: not a graph blob", ErrCorrupt)
	}
	raw, err := readRecord(r, nil)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: missing meta record", ErrCorrupt)
		}
		return BlobMeta{}, err
	}
	var meta BlobMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return BlobMeta{}, fmt.Errorf("%w: meta record: %v", ErrCorrupt, err)
	}
	if meta.ID == "" || meta.N < 0 || meta.M < 0 || meta.Bytes < 0 {
		return BlobMeta{}, fmt.Errorf("%w: implausible meta %+v", ErrCorrupt, meta)
	}
	return meta, nil
}

// Metas scans the blob directory and returns the head metadata of
// every readable blob, sorted by id. Unreadable or corrupt blobs are
// skipped (and reported) rather than failing the boot: one damaged
// file must not take the whole registry down.
func (b *BlobStore) Metas() (metas []BlobMeta, skipped []string, err error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, blobSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, blobSuffix)
		meta, err := b.loadHead(id)
		if err != nil || meta.ID != id {
			skipped = append(skipped, name)
			continue
		}
		metas = append(metas, meta)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
	return metas, skipped, nil
}

func (b *BlobStore) loadHead(id string) (BlobMeta, error) {
	f, err := os.Open(b.path(id))
	if err != nil {
		return BlobMeta{}, err
	}
	defer f.Close()
	return decodeBlobHead(f)
}

// syncFile is the persist layer's single fsync seam (and failpoint
// plant).
func syncFile(f *os.File) error {
	if err := fault.Inject(fault.Fsync); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable. Some filesystems reject directory fsync; that is not a
// correctness problem for content-addressed blobs (a lost entry is
// re-written on next Put), so the error is swallowed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
