// Package service is the serving layer over the reproduction's
// algorithm library: a graph registry (upload or server-side
// generation, content-addressed, LRU byte budget with ref-count
// pinning), an async job engine for MIS / maximal matching / spanning
// forest computations with idempotency-key deduplication, and a
// standard-library HTTP/JSON API.
//
// The design leans on the paper's central property: for a fixed
// (graph, order) every deterministic algorithm returns bit-identical
// results at any thread count. A job is therefore fully described by
// the key (graphID, problem, algorithm, seed, prefix), duplicate
// submissions can share one execution, and results can be cached and
// compared by checksum.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/trace"
)

// Config configures a Service.
type Config struct {
	// CacheBytes is the registry byte budget; 0 means 1 GiB, negative
	// means unlimited.
	CacheBytes int64
	// Workers is the job worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued jobs; 0 means 4096.
	QueueDepth int
	// ResultTTL is how long finished jobs are retained; 0 means 15m.
	ResultTTL time.Duration
	// MaxUploadBytes bounds a graph upload request body; 0 means 512 MiB.
	MaxUploadBytes int64
	// MaxGenVertices and MaxGenEdges bound server-side generation
	// requests; 0 means 1<<27 vertices and 1<<28 edges.
	MaxGenVertices int
	MaxGenEdges    int
	// MaxPatchUpdates bounds the updates one PATCH may carry; 0 means
	// 1<<20.
	MaxPatchUpdates int
	// DynamicSessions bounds the engine's cached dynamic sessions; 0
	// means 8, negative disables session reuse.
	DynamicSessions int
	// TraceCapacity sizes the trace ring buffer (events retained); 0
	// means 16384, negative disables tracing entirely (the trace
	// endpoints answer 404 and no events are recorded).
	TraceCapacity int
	// TraceRoundSample records every Nth round of a running job as a
	// trace event; 0 disables the round stream (job lifecycle spans and
	// repair events are still recorded). Sampling keeps the per-round
	// hot path allocation-free: the observer does one modulo test.
	// Round sampling also gates engine phase profiling: sampled jobs
	// run with an injected clock and emit per-phase (check/commit/
	// reset/slide) events alongside the round events.
	TraceRoundSample int
	// StreamSubscribers bounds concurrent /v1/events subscriptions; 0
	// means 16, negative disables streaming (the endpoint answers 404).
	// Streaming requires tracing: with TraceCapacity negative there is
	// no recorder to tee from, and the endpoint answers 404 regardless.
	StreamSubscribers int
	// StreamQueue is the per-subscriber event queue capacity; 0 means
	// 1024. A subscriber whose queue overflows accumulates drops and is
	// evicted after StreamQueue drops (one full queue's worth).
	StreamQueue int
	// StreamHeartbeat is the SSE heartbeat interval; 0 means 10s.
	// Heartbeat comments carry the subscriber's cumulative drop count,
	// so a consumer can see its own losses without polling /v1/metrics.
	StreamHeartbeat time.Duration
	// Logger receives structured access and job-lifecycle logs; nil
	// discards them (the default for embedded/test use — greedyd
	// installs a real handler).
	Logger *slog.Logger
	// DataDir, when non-empty, enables the durability tier: graph blobs
	// and the job journal live under it, acknowledged jobs survive
	// kill -9 (recomputed at boot), and the registry demotes cold
	// graphs to disk instead of evicting them. Empty means memory-only
	// — the hot path then performs no persistence work at all.
	DataDir string
	// IngestWatermark is the fraction of the registry byte budget at
	// which graph ingest pauses (503) to protect running jobs; only
	// meaningful with DataDir set and a positive CacheBytes. 0 means
	// 0.9; negative disables the watermark.
	IngestWatermark float64
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 1 << 30
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // Registry convention: <= 0 is unlimited.
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 512 << 20
	}
	if c.MaxGenVertices <= 0 {
		c.MaxGenVertices = 1 << 27
	}
	if c.MaxGenEdges <= 0 {
		c.MaxGenEdges = 1 << 28
	}
	if c.MaxPatchUpdates <= 0 {
		c.MaxPatchUpdates = 1 << 20
	}
	if c.TraceCapacity == 0 {
		c.TraceCapacity = 1 << 14
	}
	if c.StreamSubscribers == 0 {
		c.StreamSubscribers = 16
	}
	if c.StreamQueue <= 0 {
		c.StreamQueue = 1024
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.IngestWatermark == 0 {
		c.IngestWatermark = 0.9
	}
	if c.IngestWatermark < 0 {
		c.IngestWatermark = 0 // disabled
	}
	return c
}

// Service ties the registry, job engine, metrics, trace recorder and
// logger together.
type Service struct {
	cfg      Config
	metrics  *Metrics
	registry *Registry
	engine   *Engine
	store    *persist.Store     // nil when persistence is disabled
	trace    *trace.Recorder    // nil when tracing is disabled
	bcast    *trace.Broadcaster // nil when streaming is disabled
	log      *slog.Logger

	// shutdownCh closes when Shutdown begins; the SSE handlers select
	// on it to send their terminal frame before the listener dies.
	shutdownCh   chan struct{}
	shutdownOnce sync.Once
}

// New starts a service. With DataDir set it opens the durability tier
// and replays its debts: blob metadata rehydrates the registry index,
// the lineage log rebuilds the patch-derivation index, and every
// acknowledged-but-unfinished job in the journal is re-enqueued for
// recomputation under its original id. Opening a damaged or
// unwritable data directory is an error — silently running without
// durability the caller asked for is not an option.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	rec := trace.NewRecorder(cfg.TraceCapacity, cfg.TraceRoundSample)
	var bcast *trace.Broadcaster
	if rec.Enabled() {
		// Streaming tees off the recorder, so it exists only when
		// tracing does. NewBroadcaster returns nil for negative
		// StreamSubscribers — streaming explicitly disabled.
		bcast = trace.NewBroadcaster(cfg.StreamSubscribers, cfg.StreamQueue, 0)
		rec.SetBroadcaster(bcast)
	}
	reg := NewRegistry(cfg.CacheBytes, m)
	reg.SetWatermarkFrac(cfg.IngestWatermark)

	var store *persist.Store
	var pending []persist.PendingJob
	if cfg.DataDir != "" {
		var recs []persist.LineageRecord
		var err error
		store, pending, recs, err = persist.Open(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		reg.AttachStore(store, recs)
	}

	ecfg := EngineConfig{
		Workers:         cfg.Workers,
		QueueDepth:      cfg.QueueDepth,
		ResultTTL:       cfg.ResultTTL,
		DynamicSessions: cfg.DynamicSessions,
		Trace:           rec,
		Logger:          cfg.Logger,
	}
	if store != nil {
		ecfg.Journal = store.Journal()
	}
	eng := NewEngine(reg, m, ecfg)
	s := &Service{cfg: cfg, metrics: m, registry: reg, engine: eng, store: store,
		trace: rec, bcast: bcast, log: cfg.Logger, shutdownCh: make(chan struct{})}

	// Re-enqueue what the journal owes. Recomputation — not output
	// replay — serves these: determinism makes the recomputed bytes
	// identical to what the dead process would have produced.
	for _, p := range pending {
		var spec JobSpec
		if err := json.Unmarshal(p.Spec, &spec); err != nil {
			s.log.Warn("unrecoverable journaled job: bad spec", "job", p.ID, "error", err)
			eng.Recover(p.ID, JobSpec{}) // registers a failed job, completes the debt
			continue
		}
		if err := eng.Recover(p.ID, spec); err != nil {
			s.log.Warn("journaled job not recovered", "job", p.ID, "error", err)
		}
	}
	return s, nil
}

// Registry exposes the graph registry (used by tests and embedders).
func (s *Service) Registry() *Registry { return s.registry }

// Engine exposes the job engine (used by tests and embedders).
func (s *Service) Engine() *Engine { return s.engine }

// Trace exposes the trace recorder (nil when tracing is disabled).
func (s *Service) Trace() *trace.Recorder { return s.trace }

// Broadcaster exposes the event-stream fan-out (nil when streaming is
// disabled).
func (s *Service) Broadcaster() *trace.Broadcaster { return s.bcast }

// Close stops the service immediately: equivalent to Shutdown(0).
func (s *Service) Close() { s.Shutdown(0) }

// Shutdown drains the service gracefully: new work is refused at once,
// event-stream subscribers get a terminal shutdown frame, in-flight
// jobs get up to window to finish, and the durability tier is closed
// last so every completion marker lands. Journaled jobs the window
// could not drain stay owed — the next boot re-serves them. Safe to
// call more than once.
func (s *Service) Shutdown(window time.Duration) {
	s.shutdownOnce.Do(func() {
		close(s.shutdownCh)
		s.engine.Drain(window)
		if s.store != nil {
			if err := s.store.Close(); err != nil {
				s.log.Warn("closing data dir", "error", err)
			}
		}
	})
}

// Store exposes the durability tier (nil when persistence is off).
func (s *Service) Store() *persist.Store { return s.store }

// Snapshot assembles the full metrics view, including the state gauges
// owned by the engine and registry and the Go runtime's allocation
// counters (which make per-worker Solver reuse observable externally).
func (s *Service) Snapshot() Snapshot {
	snap := s.metrics.snapshot()
	q, r, d, f, c, dl := s.engine.stateCounts()
	snap.Jobs.Queued, snap.Jobs.Running, snap.Jobs.Done, snap.Jobs.FailedNow, snap.Jobs.CancelledNow = q, r, d, f, c
	snap.Jobs.DeadlineNow = dl
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.Runtime = RuntimeCounters{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
	}
	readRuntimeTelemetry(&snap.Runtime)
	snap.Build = readBuildInfo()
	reg := s.registry.counters()
	reg.Hits = snap.Registry.Hits
	reg.Misses = snap.Registry.Misses
	reg.Evictions = snap.Registry.Evictions
	reg.Patches = snap.Registry.Patches
	reg.IngestPausedRejections = snap.Registry.IngestPausedRejections
	snap.Registry = reg
	if s.store != nil {
		snap.Persist.Enabled = true
		appends, compactions := s.store.Journal().Counters()
		snap.Persist.WALAppends = appends
		snap.Persist.WALCompactions = compactions
		snap.Persist.PendingJobs = int64(s.store.Journal().PendingCount())
	}
	snap.TraceEvents = s.trace.Total()
	if s.bcast.Enabled() {
		st := s.bcast.Stats()
		snap.Stream = StreamCounters{
			Enabled:     true,
			Subscribers: st.Subscribers,
			Published:   st.Published,
			Dropped:     st.Dropped,
			Evicted:     st.Evicted,
			PerSub:      s.bcast.Subscribers(),
		}
	}
	return snap
}

// Patch derives a new graph version from parentID by applying an edge
// update batch (see Registry.Patch) and counts it in the metrics. A
// patch that dedups onto an already-resident version derives nothing
// and is not counted.
func (s *Service) Patch(parentID string, updates []dynamic.Update, label string) (PatchResult, bool, error) {
	res, deduped, err := s.registry.Patch(parentID, updates, label)
	if err == nil && !deduped {
		s.metrics.graphPatched()
	}
	return res, deduped, err
}

// GenSpec is a server-side graph generation request.
type GenSpec struct {
	Generator string `json:"generator"` // "random" or "rmat"
	N         int    `json:"n"`
	M         int    `json:"m"`
	Seed      uint64 `json:"seed"`
	Label     string `json:"label,omitempty"`
}

// Generate builds the requested graph with the paper's generators and
// registers it. The second result reports whether the graph was
// already resident.
func (s *Service) Generate(spec GenSpec) (GraphInfo, bool, error) {
	if spec.N <= 0 || spec.M < 0 {
		return GraphInfo{}, false, fmt.Errorf("service: bad generation sizes n=%d m=%d", spec.N, spec.M)
	}
	if spec.N > s.cfg.MaxGenVertices || spec.M > s.cfg.MaxGenEdges {
		return GraphInfo{}, false, fmt.Errorf("service: generation request n=%d m=%d exceeds limits n<=%d m<=%d",
			spec.N, spec.M, s.cfg.MaxGenVertices, s.cfg.MaxGenEdges)
	}
	family := spec.Generator
	if family == "" {
		family = "random"
	}
	g, err := graph.Generate(family, spec.N, spec.M, spec.Seed)
	if err != nil {
		return GraphInfo{}, false, err
	}
	label := spec.Label
	switch {
	case label != "":
	case family == "rmat":
		label = fmt.Sprintf("rmat(logn=%d,m=%d,seed=%d)", bits.TrailingZeros(uint(g.NumVertices())), spec.M, spec.Seed)
	default:
		label = fmt.Sprintf("random(n=%d,m=%d,seed=%d)", spec.N, spec.M, spec.Seed)
	}
	return s.registry.Add(g, label)
}
