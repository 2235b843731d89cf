package service

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/trace"
)

// latencyBounds are the upper bounds (seconds) of the latency histogram
// buckets, log-spaced from 100µs to 10s; the last bucket is unbounded.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. It is not safe for
// concurrent use; Metrics serializes access.
type histogram struct {
	counts []int64 // len(latencyBounds)+1; last bucket is +Inf
	sum    float64
	count  int64
	max    float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBounds)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBounds, seconds)
	h.counts[i]++
	h.sum += seconds
	h.count++
	if seconds > h.max {
		h.max = seconds
	}
}

// quantile estimates the q-quantile (0 < q < 1) in seconds with
// nearest-rank bucket location and linear interpolation inside the
// containing bucket. The rank is ⌈q·count⌉ (clamped to [1, count]), so
// a histogram with a single observation answers that observation's own
// bucket position — p50 = p99 = max — instead of interpolating below
// it, and a rank landing exactly on a bucket's cumulative boundary is
// attributed to that bucket (empty buckets are never selected). The
// last bucket is unbounded; its interpolation ceiling is the recorded
// maximum, so no quantile ever exceeds h.max.
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := math.Ceil(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	if rank > float64(h.count) {
		rank = float64(h.count)
	}
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if c > 0 && rank <= next {
			lo := 0.0
			if i > 0 {
				lo = latencyBounds[i-1]
			}
			hi := h.max
			if i < len(latencyBounds) && latencyBounds[i] < hi {
				hi = latencyBounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.max
}

// HistogramSnapshot is the JSON view of one latency histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	// SumMS is the total observed time — with Count, the pair every
	// cumulative-histogram consumer (Prometheus above all) needs and
	// quantiles cannot reconstruct.
	SumMS   float64   `json:"sum_ms"`
	MeanMS  float64   `json:"mean_ms"`
	P50MS   float64   `json:"p50_ms"`
	P90MS   float64   `json:"p90_ms"`
	P99MS   float64   `json:"p99_ms"`
	MaxMS   float64   `json:"max_ms"`
	Bounds  []float64 `json:"bucket_upper_bounds_ms"`
	Buckets []int64   `json:"bucket_counts"`
}

// SumSeconds returns the total observed time in seconds (the unit
// Prometheus histograms are exposed in).
func (h HistogramSnapshot) SumSeconds() float64 { return h.SumMS / 1000 }

// CumulativeBuckets returns the bucket counts accumulated in le order:
// element i is the number of observations at or below the i-th upper
// bound, and the final element (the +Inf bucket) equals Count. The raw
// Buckets field stays per-bucket, which is what the JSON consumers
// already plot.
func (h HistogramSnapshot) CumulativeBuckets() []int64 {
	out := make([]int64, len(h.Buckets))
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		out[i] = cum
	}
	return out
}

// Metrics aggregates the service counters surfaced by /v1/metrics. The
// counters live in the snapshot's own sections; their gauges (the
// resident job states, the registry's sizes, the journal's debt) stay
// zero here and are filled in by the Service, which owns those
// structures.
type Metrics struct {
	mu sync.Mutex

	jobs     JobCounters
	registry RegistryCounters
	persist  PersistCounters

	latency map[Problem]*histogram // measured over execution (run) time
	e2e     map[Problem]*histogram // measured from submission to completion

	// HTTP serving counters, fed by the instrumentation middleware:
	// requests by status class (index status/100, 0 unused) and a
	// latency histogram over every served request.
	httpByClass [6]int64
	httpLatency *histogram
}

// NewMetrics returns an empty metrics aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		latency:     make(map[Problem]*histogram),
		e2e:         make(map[Problem]*histogram),
		httpLatency: newHistogram(),
	}
}

// httpRequest records one served HTTP request.
func (m *Metrics) httpRequest(status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	class := status / 100
	if class < 1 || class > 5 {
		class = 5
	}
	m.httpByClass[class]++
	m.httpLatency.observe(d.Seconds())
}

func (m *Metrics) jobSubmitted(dedup bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs.Submitted++
	if dedup {
		m.jobs.DedupHits++
	}
}

func (m *Metrics) jobCancelled() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs.Cancelled++
}

func (m *Metrics) jobRecovered() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs.Recovered++
}

func (m *Metrics) admissionRejectedEvent() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs.AdmissionRejected++
}

func (m *Metrics) ingestPausedEvent() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registry.IngestPausedRejections++
}

func (m *Metrics) persistBlobWritten(bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persist.BlobsWritten++
	m.persist.BlobBytes += bytes
}

func (m *Metrics) persistDemotion() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persist.Demotions++
}

func (m *Metrics) persistColdLoad() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persist.ColdLoads++
}

func (m *Metrics) persistRehydrated() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persist.Rehydrated++
}

func (m *Metrics) persistError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persist.Errors++
}

// jobFinished records a worker-side completion. Only successful runs
// feed the latency histograms: failed and cancelled runs would skew
// the percentiles with truncated durations. repair is non-nil for
// dynamic jobs answered by advancing a session; its frontier counters
// feed the aggregate repair-work gauges.
func (m *Metrics) jobFinished(p Problem, state JobState, adaptive bool, repair *dynamic.RepairStats, run, endToEnd time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch state {
	case StateFailed:
		m.jobs.Failed++
		return
	case StateCancelled:
		m.jobs.Cancelled++
		return
	case StateDeadline:
		m.jobs.DeadlineExceeded++
		return
	}
	m.jobs.Executed++
	if adaptive {
		m.jobs.AdaptiveExecuted++
	}
	if repair != nil {
		m.jobs.Repaired++
		m.jobs.RepairVisited += int64(repair.MIS.Visited + repair.MM.Visited)
		m.jobs.RepairFlipped += int64(repair.MIS.Flipped + repair.MM.Flipped)
	}
	h := m.latency[p]
	if h == nil {
		h = newHistogram()
		m.latency[p] = h
	}
	h.observe(run.Seconds())
	h2 := m.e2e[p]
	if h2 == nil {
		h2 = newHistogram()
		m.e2e[p] = h2
	}
	h2.observe(endToEnd.Seconds())
}

func (m *Metrics) jobsReaped(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs.Expired += int64(n)
}

func (m *Metrics) registryEvent(hits, misses, evictions int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registry.Hits += hits
	m.registry.Misses += misses
	m.registry.Evictions += evictions
}

func (m *Metrics) graphPatched() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registry.Patches++
}

// JobCounters is the jobs section of a metrics snapshot.
type JobCounters struct {
	Submitted int64 `json:"submitted"`
	DedupHits int64 `json:"dedup_hits"`
	Executed  int64 `json:"executed"`
	// AdaptiveExecuted counts executed jobs that ran the adaptive
	// prefix schedule (a subset of Executed).
	AdaptiveExecuted int64 `json:"adaptive_executed"`
	// Repaired counts executed dynamic jobs that were answered by
	// advancing a maintained session (change-driven frontier repair)
	// instead of recomputing from scratch (a subset of Executed).
	// RepairVisited/RepairFlipped aggregate those repairs' frontier
	// work — items re-decided and membership flips propagated — the
	// fleet-level view of "repair cost stays proportional to the
	// damage region".
	Repaired      int64 `json:"repaired"`
	RepairVisited int64 `json:"repair_visited"`
	RepairFlipped int64 `json:"repair_flipped"`
	Failed        int64 `json:"failed"`
	Cancelled     int64 `json:"cancelled"`
	// DeadlineExceeded counts jobs terminated by their own timeout_ms
	// budget (the per-job overload-control deadline).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Expired          int64 `json:"expired"`
	// Recovered counts journaled jobs re-enqueued at boot: acknowledged
	// before a crash, recomputed after it.
	Recovered int64 `json:"recovered"`
	// AdmissionRejected counts submissions refused with 429 because the
	// queue was full.
	AdmissionRejected int64 `json:"admission_rejected"`
	Queued            int64 `json:"queued"`
	Running           int64 `json:"running"`
	Done              int64 `json:"done"`
	FailedNow         int64 `json:"failed_resident"`
	CancelledNow      int64 `json:"cancelled_resident"`
	DeadlineNow       int64 `json:"deadline_resident"`
}

// RegistryCounters is the registry section of a metrics snapshot.
type RegistryCounters struct {
	Graphs int `json:"graphs"`
	Pinned int `json:"pinned"`
	// ColdGraphs counts entries whose arrays live only in the disk tier
	// right now (always 0 without persistence).
	ColdGraphs    int   `json:"cold_graphs"`
	BytesResident int64 `json:"bytes_resident"`
	ByteBudget    int64 `json:"byte_budget"`
	// WatermarkBytes is the resident-byte level at which graph ingest
	// pauses (0 when the watermark is disarmed).
	WatermarkBytes int64 `json:"watermark_bytes"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	// Patches counts graph versions derived via PATCH /v1/graphs/{id}.
	Patches int64 `json:"patches"`
	// IngestPausedRejections counts graph uploads refused with 503 while
	// resident bytes sat over the watermark.
	IngestPausedRejections int64 `json:"ingest_paused_rejections"`
}

// PersistCounters is the durability section of a metrics snapshot. All
// fields are zero when greedyd runs without -data-dir.
type PersistCounters struct {
	// Enabled reports whether a data directory is attached.
	Enabled bool `json:"enabled"`
	// BlobsWritten / BlobBytes count committed graph blobs and their
	// payload bytes.
	BlobsWritten int64 `json:"blobs_written"`
	BlobBytes    int64 `json:"blob_bytes"`
	// Demotions counts warm graphs demoted to the disk tier by the byte
	// budget; ColdLoads counts reloads of cold graphs on Acquire.
	Demotions int64 `json:"demotions"`
	ColdLoads int64 `json:"cold_loads"`
	// Rehydrated counts graph entries indexed from blobs at boot.
	Rehydrated int64 `json:"rehydrated"`
	// WALAppends / WALCompactions count job-journal appends and rewrite
	// cycles; PendingJobs is the journal's current
	// acknowledged-but-unfinished set.
	WALAppends     int64 `json:"wal_appends"`
	WALCompactions int64 `json:"wal_compactions"`
	PendingJobs    int64 `json:"pending_jobs"`
	// Errors counts persistence failures; by design these degrade
	// durability or speed, never correctness.
	Errors int64 `json:"errors"`
}

// RuntimeCounters is the Go-runtime section of a metrics snapshot: the
// allocation counters that make per-worker Solver reuse measurable from
// the outside (loadgen reports mallocs per executed job from these).
type RuntimeCounters struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	NumGC           uint32 `json:"num_gc"`
	Goroutines      int    `json:"goroutines"`
	// HeapGoalBytes is the GC's current heap size target
	// (/gc/heap/goal:bytes).
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	// GOMAXPROCS is the scheduler's processor limit — the engine's
	// fork-join width ceiling.
	GOMAXPROCS int `json:"gomaxprocs"`
	// GCPauses is the stop-the-world pause distribution
	// (/gc/pauses:seconds) since process start.
	GCPauses RuntimeHistogram `json:"gc_pauses"`
	// SchedLatency is the goroutine scheduling-latency distribution
	// (/sched/latencies:seconds) since process start — the time between
	// a goroutine becoming runnable and running, which bounds how
	// promptly the engine's fork-join workers start.
	SchedLatency RuntimeHistogram `json:"sched_latency"`
}

// HTTPCounters is the HTTP-serving section of a metrics snapshot.
type HTTPCounters struct {
	// Requests maps status class ("2xx".."5xx") to served requests.
	Requests map[string]int64  `json:"requests_by_class"`
	Latency  HistogramSnapshot `json:"latency"`
}

// StreamCounters is the /v1/events fan-out section of a metrics
// snapshot; filled in by the Service, which owns the broadcaster.
type StreamCounters struct {
	// Enabled reports whether streaming is configured at all; when
	// false the other fields are zero.
	Enabled bool `json:"enabled"`
	// Subscribers is the number of currently attached subscriptions.
	Subscribers int `json:"subscribers"`
	// Published counts events offered to the fan-out since start.
	Published uint64 `json:"published"`
	// Dropped counts events discarded across all subscriber queues.
	Dropped uint64 `json:"dropped"`
	// Evicted counts subscriptions force-detached for falling behind.
	Evicted uint64 `json:"evicted"`
	// PerSub describes each attached subscription (drops, queue depth).
	PerSub []trace.SubscriberStat `json:"per_subscriber,omitempty"`
}

// Snapshot is the full /v1/metrics response.
type Snapshot struct {
	Jobs       JobCounters                   `json:"jobs"`
	Registry   RegistryCounters              `json:"registry"`
	Persist    PersistCounters               `json:"persist"`
	Runtime    RuntimeCounters               `json:"runtime"`
	HTTP       HTTPCounters                  `json:"http"`
	RunLatency map[Problem]HistogramSnapshot `json:"run_latency"`
	E2ELatency map[Problem]HistogramSnapshot `json:"e2e_latency"`
	// TraceEvents is the total number of trace events recorded (0 when
	// tracing is disabled); filled in by the Service, which owns the
	// recorder.
	TraceEvents uint64 `json:"trace_events"`
	// Stream is the live event-stream fan-out state.
	Stream StreamCounters `json:"stream"`
	// Build identifies the running binary.
	Build BuildInfo `json:"build"`
}

func snapshotHistogram(h *histogram) HistogramSnapshot {
	boundsMS := make([]float64, len(latencyBounds))
	for i, b := range latencyBounds {
		boundsMS[i] = b * 1000
	}
	mean := 0.0
	if h.count > 0 {
		mean = h.sum / float64(h.count)
	}
	return HistogramSnapshot{
		Count:   h.count,
		SumMS:   h.sum * 1000,
		MeanMS:  mean * 1000,
		P50MS:   h.quantile(0.50) * 1000,
		P90MS:   h.quantile(0.90) * 1000,
		P99MS:   h.quantile(0.99) * 1000,
		MaxMS:   h.max * 1000,
		Bounds:  boundsMS,
		Buckets: append([]int64(nil), h.counts...),
	}
}

// snapshot captures the counters; the gauges are the Service's to fill.
func (m *Metrics) snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Jobs:       m.jobs,
		Registry:   m.registry,
		Persist:    m.persist,
		RunLatency: make(map[Problem]HistogramSnapshot, len(m.latency)),
		E2ELatency: make(map[Problem]HistogramSnapshot, len(m.e2e)),
		HTTP: HTTPCounters{
			Requests: map[string]int64{
				"1xx": m.httpByClass[1],
				"2xx": m.httpByClass[2],
				"3xx": m.httpByClass[3],
				"4xx": m.httpByClass[4],
				"5xx": m.httpByClass[5],
			},
			Latency: snapshotHistogram(m.httpLatency),
		},
	}
	for p, h := range m.latency {
		s.RunLatency[p] = snapshotHistogram(h)
	}
	for p, h := range m.e2e {
		s.E2ELatency[p] = snapshotHistogram(h)
	}
	return s
}
