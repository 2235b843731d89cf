package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/setcover"
)

// Registry errors.
var (
	// ErrGraphNotFound is returned when an id names no known graph
	// (never ingested, or evicted with no disk tier to hold it).
	ErrGraphNotFound = errors.New("service: graph not found (unknown id or evicted)")
	// ErrGraphTooLarge is returned when a single graph exceeds the whole
	// byte budget.
	ErrGraphTooLarge = errors.New("service: graph larger than the registry byte budget")
	// ErrIngestPaused is returned when the memory watermark pauses
	// graph ingest: resident bytes are too close to the budget to admit
	// more input safely.
	ErrIngestPaused = errors.New("service: graph ingest paused (resident bytes over the memory watermark)")
)

// GraphInfo is the public metadata of a registered graph.
type GraphInfo struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Bytes int64  `json:"bytes"`
	Refs  int    `json:"refs"`
	// Resident reports which tier holds the graph: true means the CSR
	// arrays are in memory, false means the graph lives only in the
	// disk tier and the next Acquire will reload it.
	Resident bool      `json:"resident"`
	AddedAt  time.Time `json:"added_at"`
	LastUsed time.Time `json:"last_used"`
}

// regEntry is one known graph. The graph arrays are immutable; the
// bookkeeping fields are guarded by the registry mutex. g is nil for
// cold entries (demoted to, or rehydrated from, the disk tier); every
// Acquire returns only after g is loaded, and the pin then keeps the
// entry warm, so handle methods read g without locks.
//
// The edge-list view (needed by MM and SF jobs) and the vertex-cover
// set system built from it (needed by hitting-set jobs) are derived
// lazily and cached under elMu, so repeated jobs on the same graph do
// not pay the O(m) derivations each run. Demotion clears both (they
// are rederived on the next warm use); that touch is safe without elMu
// because demotion only ever selects unpinned entries, which by the
// handle contract have no outstanding users.
type regEntry struct {
	info      GraphInfo
	g         *graph.Graph
	persisted bool   // a committed blob exists in the disk tier
	clock     uint64 // LRU tick of the last Acquire

	loadMu sync.Mutex // serializes cold loads of this entry

	elMu     sync.Mutex
	elSet    bool
	el       graph.EdgeList
	elBytes  int64
	sys      *setcover.System
	sysBytes int64

	statsMu  sync.Mutex
	statsSet bool
	stats    graph.DegreeStats
}

// lineageRec remembers how a graph version was derived, so the job
// engine can advance a dynamic session from an ancestor version to a
// descendant by replaying the patches instead of recomputing. Records
// are kept in a bounded FIFO separate from the resident entries: a
// patch is small (bounded by the request cap) and stays useful even
// after an intermediate version is evicted.
type lineageRec struct {
	parent  string
	updates []dynamic.Update
}

// maxLineageRecs bounds the lineage index. The lineage log is
// rewritten to the retained records at boot and after every
// maxLineageRecs appends, so it holds at most twice as many.
const maxLineageRecs = 1024

// Registry is the graph store behind the service: content-addressed
// ingest, byte-budgeted LRU with ref-count pinning, and — when a
// persist.Store is attached — a disk tier that the budget demotes cold
// graphs to instead of evicting them, plus durable blobs written at
// ingest so graphs survive a crash. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	budget   int64
	resident int64
	clock    uint64
	entries  map[string]*regEntry
	metrics  *Metrics

	store     *persist.Store // nil: memory-only (no durability, evictions are final)
	watermark int64          // ingest pauses at this many resident bytes; 0 disables

	// lineageMu guards the lineage index and orders the log's appends
	// and rewrites with it, so the log holds the retained derivations
	// in their order.
	lineageMu      sync.Mutex
	lineage        map[string]lineageRec
	lineageOrder   []string // FIFO of lineage keys for bounded retention
	lineageAppends int      // log appends since its last rewrite
}

// NewRegistry returns a registry with the given byte budget (<= 0 means
// unlimited). metrics may be nil.
func NewRegistry(budget int64, metrics *Metrics) *Registry {
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &Registry{
		budget:  budget,
		entries: make(map[string]*regEntry),
		metrics: metrics,
		lineage: make(map[string]lineageRec),
	}
}

// SetWatermarkFrac arms ingest admission control at frac (0 < f < 1)
// of the byte budget: once resident bytes that cannot be demoted or
// evicted press past it, IngestPaused reports true and graph ingest is
// refused. Independent of the disk tier — overload control applies to
// purely in-memory deployments too. Out-of-range fractions (or an
// unlimited budget) leave it disarmed.
func (r *Registry) SetWatermarkFrac(frac float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget > 0 && frac > 0 && frac < 1 {
		r.watermark = int64(float64(r.budget) * frac)
	}
}

// AttachStore connects the disk tier and rehydrates the index from it:
// every committed blob becomes a cold entry (metadata resident, arrays
// loaded on first Acquire), and the lineage log rebuilds the
// patch-derivation index, then is rewritten to what the index retains.
// Must be called before the registry serves requests.
func (r *Registry) AttachStore(store *persist.Store, recs []persist.LineageRecord) {
	r.lineageMu.Lock()
	defer r.lineageMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = store
	metas, skipped, err := store.Blobs().Metas()
	if err != nil {
		r.metrics.persistError()
		return
	}
	_ = skipped // counted per-blob below; corrupt blobs simply stay unknown
	for _, meta := range metas {
		if _, ok := r.entries[meta.ID]; ok {
			continue
		}
		now := time.Now()
		r.entries[meta.ID] = &regEntry{
			info: GraphInfo{
				ID:       meta.ID,
				Label:    meta.Label,
				N:        meta.N,
				M:        meta.M,
				Bytes:    meta.Bytes,
				Resident: false,
				AddedAt:  now,
				LastUsed: now,
			},
			persisted: true,
			clock:     r.tickLocked(),
		}
		r.metrics.persistRehydrated()
	}
	for _, rec := range recs {
		updates := make([]dynamic.Update, 0, len(rec.Updates))
		ok := true
		for _, u := range rec.Updates {
			op, err := dynamic.ParseOp(u.Op)
			if err != nil {
				ok = false
				break
			}
			updates = append(updates, dynamic.Update{Op: op, U: u.U, V: u.V})
		}
		if ok && rec.Child != rec.Parent {
			r.recordLineageLocked(rec.Child, rec.Parent, updates)
		}
	}
	// A log that replayed nothing already holds what the index retains.
	if len(recs) > 0 {
		if err := r.rewriteLineageLocked(store); err != nil {
			r.metrics.persistError()
		}
	}
}

// IngestPaused reports whether the memory watermark pauses graph
// ingest. It first demotes what it can — only residency the disk tier
// cannot absorb (pins, unpersisted graphs, no store) keeps the pause
// asserted.
func (r *Registry) IngestPaused() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget <= 0 || r.watermark <= 0 || r.resident < r.watermark {
		return false
	}
	r.evictLocked(r.budget - r.watermark)
	return r.resident >= r.watermark
}

// GraphID returns the content-addressed id of g: a truncated sha256 of
// its CSR arrays. Two ingests of the same graph — whether uploaded in
// different formats or regenerated from the same (generator, n, m,
// seed) — map to the same id, so the registry deduplicates storage for
// free. A cryptographic hash matters here: ids route jobs to graphs,
// so a client able to craft a colliding upload could make the service
// answer from the wrong graph.
func GraphID(g *graph.Graph) string {
	offsets, adj := g.Raw()
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(offsets)))
	h.Write(tmp[:])
	for _, o := range offsets {
		binary.LittleEndian.PutUint64(tmp[:], uint64(o))
		buf = append(buf, tmp[:]...)
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	for _, v := range adj {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(v))
		buf = append(buf, tmp[:4]...)
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	sum := h.Sum(nil)
	return "g" + hex.EncodeToString(sum[:16])
}

// graphBytes estimates the resident size of a graph's CSR arrays.
func graphBytes(g *graph.Graph) int64 {
	offsets, adj := g.Raw()
	return int64(len(offsets))*8 + int64(len(adj))*4
}

// Add ingests g under its content id and returns its metadata. The
// second result reports whether the graph was already known (a
// registry hit). With a disk tier attached the blob is committed —
// fsync'd — before the graph is registered, so a 201 means the graph
// survives a crash. Adding may demote (or, memory-only, evict)
// least-recently-used unpinned graphs to fit the budget; if every
// resident graph is pinned the budget is allowed to overshoot rather
// than fail in-flight jobs.
func (r *Registry) Add(g *graph.Graph, label string) (GraphInfo, bool, error) {
	id := GraphID(g)
	bytes := graphBytes(g)
	if r.budget > 0 && bytes > r.budget {
		return GraphInfo{}, false, fmt.Errorf("%w: %d bytes > budget %d", ErrGraphTooLarge, bytes, r.budget)
	}
	now := time.Now()

	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		e.clock = r.tickLocked()
		e.info.LastUsed = now
		info := e.info
		r.mu.Unlock()
		r.metrics.registryEvent(1, 0, 0)
		return info, true, nil
	}
	store := r.store
	r.mu.Unlock()

	// Commit the blob before registering: the durability contract is
	// that a successful ingest survives kill -9, so a blob that cannot
	// be written fails the ingest rather than silently downgrading it.
	persisted := false
	if store != nil {
		err := store.Blobs().Put(persist.BlobMeta{
			ID: id, Label: label, N: g.NumVertices(), M: g.NumEdges(), Bytes: bytes,
		}, g)
		if err != nil {
			r.metrics.persistError()
			return GraphInfo{}, false, fmt.Errorf("service: persisting graph blob: %w", err)
		}
		persisted = true
		r.metrics.persistBlobWritten(bytes)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		// A racing Add won while the blob was written; content
		// addressing makes both writes identical, so this is a hit.
		e.clock = r.tickLocked()
		e.info.LastUsed = now
		e.persisted = e.persisted || persisted
		r.metrics.registryEvent(1, 0, 0)
		return e.info, true, nil
	}
	r.evictLocked(bytes)
	e := &regEntry{
		info: GraphInfo{
			ID:       id,
			Label:    label,
			N:        g.NumVertices(),
			M:        g.NumEdges(),
			Bytes:    bytes,
			Resident: true,
			AddedAt:  now,
			LastUsed: now,
		},
		g:         g,
		persisted: persisted,
		clock:     r.tickLocked(),
	}
	r.entries[id] = e
	r.resident += bytes
	return e.info, false, nil
}

// tickLocked advances the LRU clock; callers hold r.mu.
func (r *Registry) tickLocked() uint64 {
	r.clock++
	return r.clock
}

// evictLocked frees memory until incoming more bytes fit the budget,
// working through unpinned warm graphs in LRU order. A graph with a
// committed blob is demoted — its arrays and cached edge list are
// dropped but the entry stays, cold, reloadable on the next Acquire.
// A graph the disk tier does not hold is evicted outright (memory-only
// registries always take this path). Pinned graphs (Refs > 0) are
// never touched, so the budget can transiently overshoot when all
// residents are in use; callers hold r.mu.
func (r *Registry) evictLocked(incoming int64) {
	if r.budget <= 0 {
		return
	}
	for r.resident+incoming > r.budget {
		var victim *regEntry
		for _, e := range r.entries {
			if e.info.Refs > 0 || e.g == nil {
				continue // pinned, or already cold
			}
			if victim == nil || e.clock < victim.clock {
				victim = e
			}
		}
		if victim == nil {
			return // everything warm is pinned: overshoot rather than break jobs
		}
		r.resident -= victim.info.Bytes + victim.elBytes + victim.sysBytes
		if victim.persisted {
			victim.g = nil
			victim.info.Resident = false
			victim.el = graph.EdgeList{}
			victim.elSet = false
			victim.elBytes = 0
			victim.sys = nil
			victim.sysBytes = 0
			r.metrics.persistDemotion()
		} else {
			delete(r.entries, victim.info.ID)
			r.metrics.registryEvent(0, 0, 1)
		}
	}
}

// ensureLoaded reloads a cold entry's arrays from the disk tier. The
// caller must already hold a pin on e (Refs > 0), which is what keeps
// a concurrent eviction cycle from demoting the entry right back.
func (r *Registry) ensureLoaded(e *regEntry) error {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	r.mu.Lock()
	if e.g != nil {
		r.mu.Unlock()
		return nil // a racing load won
	}
	store := r.store
	r.mu.Unlock()
	if store == nil {
		return fmt.Errorf("%w: %q (cold entry with no disk tier)", ErrGraphNotFound, e.info.ID)
	}
	_, g, err := store.Blobs().Load(e.info.ID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	e.g = g
	e.info.Resident = true
	r.resident += e.info.Bytes
	r.metrics.persistColdLoad()
	// Loading one graph may push another past the budget; e itself is
	// pinned, so it cannot be the victim.
	r.evictLocked(0)
	r.mu.Unlock()
	return nil
}

// Handle is a pinned reference to a graph. While any handle is
// outstanding the graph stays warm in memory. Release must be called
// exactly once.
type Handle struct {
	r    *Registry
	e    *regEntry
	once sync.Once
}

// Graph returns the pinned graph.
func (h *Handle) Graph() *graph.Graph { return h.e.g }

// ID returns the pinned graph's id.
func (h *Handle) ID() string { return h.e.info.ID }

// EdgeList returns the graph's canonical edge-list view, deriving and
// caching it on first use. Safe for concurrent use.
func (h *Handle) EdgeList() graph.EdgeList {
	e := h.e
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if !e.elSet {
		e.el = e.g.EdgeList()
		e.elSet = true
		e.elBytes = int64(len(e.el.Edges)) * 8
		h.r.mu.Lock()
		h.r.resident += e.elBytes
		h.r.mu.Unlock()
	}
	return e.el
}

// HittingSystem returns the graph's vertex-cover set system (one
// two-element set per edge, the input of hitting-set jobs), deriving
// and caching it on first use like EdgeList, and accounting its bytes
// the same way. Safe for concurrent use.
func (h *Handle) HittingSystem() *setcover.System {
	el := h.EdgeList()
	e := h.e
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if e.sys == nil {
		e.sys = setcover.FromEdges(el)
		e.sysBytes = e.sys.Bytes()
		h.r.mu.Lock()
		h.r.resident += e.sysBytes
		h.r.mu.Unlock()
	}
	return e.sys
}

// Release unpins the graph. Idempotent.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.r.mu.Lock()
		h.e.info.Refs--
		h.r.mu.Unlock()
	})
}

// Stats returns the degree statistics of the pinned graph, computed
// once per entry and cached (they are immutable with the graph, so
// they survive demotion). Safe for concurrent use.
func (h *Handle) Stats() graph.DegreeStats {
	e := h.e
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	if !e.statsSet {
		e.stats = graph.Stats(e.g)
		e.statsSet = true
	}
	return e.stats
}

// PatchResult describes a derived graph version.
type PatchResult struct {
	GraphInfo
	// Parent is the version the patch was applied to.
	Parent string `json:"parent"`
	// Added and Removed count the applied updates.
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// Patch derives a new graph version: it applies the update batch to
// the resident graph parentID, registers the result under its own
// content-addressed id (so job dedup keys never conflate versions),
// and records the lineage for the engine's session repair. The batch
// is validated against the parent and rejected wholesale
// (dynamic.ErrBadUpdate) on any violation.
func (r *Registry) Patch(parentID string, updates []dynamic.Update, label string) (PatchResult, bool, error) {
	h, err := r.Acquire(parentID)
	if err != nil {
		return PatchResult{}, false, err
	}
	defer h.Release()
	child, added, removed, err := dynamic.ApplyToGraph(h.Graph(), updates)
	if err != nil {
		return PatchResult{}, false, err
	}
	if label == "" {
		label = h.e.info.Label
	}
	info, deduped, err := r.Add(child, label)
	if err != nil {
		return PatchResult{}, false, err
	}
	// An empty (or self-inverting — impossible, batches are validated
	// sets) patch dedups onto the parent itself; a self-edge in the
	// lineage graph would make the session walk spin.
	if info.ID != parentID {
		r.recordLineage(info.ID, parentID, updates)
	}
	return PatchResult{GraphInfo: info, Parent: parentID, Added: added, Removed: removed}, deduped, nil
}

// recordLineage stores a bounded number of derivation records and,
// with a disk tier attached, appends them to the durable lineage log
// so repair opportunities survive a restart.
func (r *Registry) recordLineage(child, parent string, updates []dynamic.Update) {
	r.lineageMu.Lock()
	defer r.lineageMu.Unlock()
	r.recordLineageLocked(child, parent, updates)
	r.mu.Lock()
	store := r.store
	r.mu.Unlock()
	if store == nil {
		return
	}
	err := store.Lineage().Append(lineageRecord(child, r.lineage[child]))
	r.lineageAppends++
	if err == nil && r.lineageAppends >= maxLineageRecs {
		err = r.rewriteLineageLocked(store)
	}
	if err != nil {
		// Lineage is a repair optimization; losing a record costs a
		// recompute, never correctness.
		r.metrics.persistError()
	}
}

// rewriteLineageLocked rewrites the lineage log to the retained
// derivations, oldest first.
func (r *Registry) rewriteLineageLocked(store *persist.Store) error {
	recs := make([]persist.LineageRecord, len(r.lineageOrder))
	for i, child := range r.lineageOrder {
		recs[i] = lineageRecord(child, r.lineage[child])
	}
	r.lineageAppends = 0
	return store.Lineage().Rewrite(recs)
}

// lineageRecord is the log record of child's derivation rec.
func lineageRecord(child string, rec lineageRec) persist.LineageRecord {
	out := persist.LineageRecord{Child: child, Parent: rec.parent,
		Updates: make([]persist.LineageUpdate, len(rec.updates))}
	for i, u := range rec.updates {
		out.Updates[i] = persist.LineageUpdate{Op: u.Op.String(), U: u.U, V: u.V}
	}
	return out
}

func (r *Registry) recordLineageLocked(child, parent string, updates []dynamic.Update) {
	rec := lineageRec{parent: parent, updates: append([]dynamic.Update(nil), updates...)}
	if _, exists := r.lineage[child]; !exists {
		r.lineageOrder = append(r.lineageOrder, child)
	}
	r.lineage[child] = rec
	for len(r.lineageOrder) > maxLineageRecs {
		victim := r.lineageOrder[0]
		r.lineageOrder = r.lineageOrder[1:]
		delete(r.lineage, victim)
	}
}

// Lineage returns how a graph version was derived, if known.
func (r *Registry) Lineage(id string) (parent string, updates []dynamic.Update, ok bool) {
	r.lineageMu.Lock()
	defer r.lineageMu.Unlock()
	rec, ok := r.lineage[id]
	if !ok {
		return "", nil, false
	}
	return rec.parent, rec.updates, true
}

// Acquire pins the graph with the given id and returns a handle to it,
// reloading the arrays from the disk tier when the entry is cold. The
// pin is taken before the load, so a concurrent eviction cycle cannot
// demote the entry out from under the loader.
func (r *Registry) Acquire(id string) (*Handle, error) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		r.metrics.registryEvent(0, 1, 0)
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, id)
	}
	e.info.Refs++
	e.clock = r.tickLocked()
	e.info.LastUsed = time.Now()
	needLoad := e.g == nil
	r.mu.Unlock()
	if needLoad {
		if err := r.ensureLoaded(e); err != nil {
			r.mu.Lock()
			e.info.Refs--
			r.mu.Unlock()
			r.metrics.persistError()
			return nil, fmt.Errorf("service: loading graph %q from disk tier: %w", id, err)
		}
	}
	r.metrics.registryEvent(1, 0, 0)
	return &Handle{r: r, e: e}, nil
}

// Get returns the metadata of a known graph.
func (r *Registry) Get(id string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return GraphInfo{}, false
	}
	return e.info, true
}

// List returns the metadata of every known graph (both tiers).
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.info)
	}
	return out
}

// counters returns the registry gauges for a metrics snapshot.
func (r *Registry) counters() RegistryCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	pinned, cold := 0, 0
	for _, e := range r.entries {
		if e.info.Refs > 0 {
			pinned++
		}
		if e.g == nil {
			cold++
		}
	}
	return RegistryCounters{
		Graphs:         len(r.entries),
		Pinned:         pinned,
		ColdGraphs:     cold,
		BytesResident:  r.resident,
		ByteBudget:     r.budget,
		WatermarkBytes: r.watermark,
	}
}
