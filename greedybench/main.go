// Command greedybench is the repository's benchmark. It drives the
// greedy library through greedy.Solver and its dynamic sessions, and the
// greedyd service through service.Client over a loopback listener, and
// times every call into a layer from outside.
//
//	greedybench --workload solve-random --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//   - solve-random: a uniform random graph (2^19 vertices, m = 5n), the
//     paper's first input family. Low conflict: the engine's check and
//     commit phases carry the work.
//   - solve-rmat: an rMat graph of the same size, the paper's second
//     family. Hubs raise retries and skew the work per chunk, so the
//     slide/retry path and load balancing carry more of it.
//   - serve-mixed: an in-process greedyd with the journal on, over a
//     2^15-vertex random graph, driven by two closed-loop clients. Each
//     solve takes milliseconds, so HTTP, the fsync'd journal, queueing,
//     payload encoding, registry patching and blob writes carry a large
//     share of every operation.
//
// Every run checks its outputs against a sequential or direct solve and
// prints a metric table followed by one JSON line. With --trace 0 the
// JSON holds the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics of a separate traced run, and the spans recorded
// around each layer call are written to .bench_build/spans-*.json.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro"
)

// procs pins the scheduler width: every figure is measured at two
// processors, the width the bounds in BENCHMARK.json were set at.
const procs = 2

// Workload sizes. The library workloads use the paper's inputs at 2^19
// vertices; the service workload uses 2^15, where a solve is short
// enough that the serving layers show.
const (
	solveLogN = 19
	serveLogN = 15
	degree    = 5 // m = degree * n
)

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	logN     int    // vertex count exponent
	dir      string // scratch directory: data dirs and the span file
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("greedybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solve-random | solve-rmat | serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run")
	logN := fs.Int("log-n", 0, "vertex count exponent (0 = the workload's size)")
	dir := fs.String("dir", ".bench_build", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		logN:     *logN,
		dir:      *dir,
	}
	if cfg.window <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "greedybench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var body func(config, *results, *tracer) error
	switch cfg.workload {
	case "solve-random", "solve-rmat":
		body = runSolve
		if cfg.logN == 0 {
			cfg.logN = solveLogN
		}
	case "serve-mixed":
		body = runServe
		if cfg.logN == 0 {
			cfg.logN = serveLogN
		}
	default:
		fmt.Fprintf(stderr, "greedybench: unknown workload %q (want solve-random|solve-rmat|serve-mixed)\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "greedybench:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)

	res := newResults()
	tr := newTracer(cfg.traced)
	if err := body(cfg, res, tr); err != nil {
		fmt.Fprintln(stderr, "greedybench:", err)
		return 2
	}
	if cfg.traced {
		name := fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed)
		if err := tr.write(filepath.Join(cfg.dir, name)); err != nil {
			fmt.Fprintln(stderr, "greedybench: writing spans:", err)
			return 2
		}
		tr.printSelfTimes(stdout)
	}
	for _, msg := range res.failures {
		fmt.Fprintln(stderr, "greedybench: FAILED:", msg)
	}
	res.print(stdout)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// results collects a run's metrics and its operation tally. Methods are
// safe for concurrent use.
type results struct {
	mu        sync.Mutex
	names     []string
	metrics   map[string]metric
	notes     map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newResults() *results {
	return &results{metrics: make(map[string]metric), notes: make(map[string]metric)}
}

// add records a metric; samples is the number of measurements behind it.
func (r *results) add(name, unit string, value float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit, samples: samples}
}

// note records a figure for the table only, not the JSON result.
func (r *results) note(name, unit string, value float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names = append(r.names, name)
	r.notes[name] = metric{Value: value, Unit: unit, samples: samples}
}

// op counts one attempted operation, and a failure when err is non-nil.
func (r *results) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// print writes the metric table and, as the last line, the JSON result.
func (r *results) print(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, name := range r.names {
		m, ok := r.metrics[name]
		if !ok {
			m = r.notes[name]
		}
		fmt.Fprintf(w, "%-32s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.samples)
	}
	fmt.Fprintf(w, "%-32s %16.4f %-6s n=%d\n", "failed_frac", frac, "1", r.attempted)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.jsonMetrics()}
	raw, _ := json.Marshal(out) // plain floats and strings always marshal
	fmt.Fprintln(w, string(raw))
}

// jsonMetrics returns the metrics with finite values; NaN (a ratio with
// no samples) has no JSON form.
func (r *results) jsonMetrics() map[string]metric {
	out := make(map[string]metric, len(r.metrics))
	for name, m := range r.metrics {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			out[name] = m
		}
	}
	return out
}

// Summary statistics.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// settle runs a full collection so that a timed call starts from a
// quiet heap instead of paying for its predecessor's garbage.
func settle() { runtime.GC() }

// heapPeak keeps the largest live-heap reading it has sampled.
type heapPeak struct {
	peak uint64
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

func (h *heapPeak) mib() float64 { return float64(h.peak) / (1 << 20) }

// heapSampler samples the heap every few milliseconds until stopped,
// for windows without natural sampling points.
type heapSampler struct {
	heapPeak
	stop, done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return h.mib()
}

// runtimeMark is a reading of the allocation and automatic-GC counters.
type runtimeMark struct{ allocBytes, autoGC uint64 }

func readRuntime() runtimeMark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/automatic:gc-cycles"}}
	metrics.Read(s)
	return runtimeMark{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// addRuntime reports the allocation volume per operation and the
// automatic GC cycles between two marks.
func addRuntime(res *results, from, to runtimeMark, ops int) {
	res.add("runtime.alloc_mb_per_op", "MiB", float64(to.allocBytes-from.allocBytes)/(1<<20)/float64(max(ops, 1)), ops)
	res.add("runtime.gc_cycles", "count", float64(to.autoGC-from.autoGC), 1)
}

// Seed streams (see mix): each kind of input draws from its own.
const (
	streamGraph   = 0
	streamOrder   = 1
	streamChurn   = 2
	streamTimed   = 3 // orders built only to time NewRandomOrder
	streamDynamic = 5
	streamWarmup  = 1 << 20
	streamUnique  = 1 << 21
)

// mix derives an independent 64-bit value from a seed and a stream
// index with the splitmix64 finalizer, so graphs, orders and batches
// never share a generator stream.
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Answer checksums, computed here independently of the service: FNV-1a
// over a membership vector (one byte per item), a color assignment
// (little-endian int32 per vertex), or a sorted pair list.

func membershipChecksum(in []bool) string {
	buf := make([]byte, len(in))
	for i, x := range in {
		if x {
			buf[i] = 1
		}
	}
	return fnvHex(buf)
}

func colorsChecksum(colors []int32) string {
	buf := make([]byte, 4*len(colors))
	for i, c := range colors {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(c))
	}
	return fnvHex(buf)
}

func pairsChecksum(pairs []greedy.Edge) string {
	sorted := append([]greedy.Edge(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	buf := make([]byte, 8*len(sorted))
	for i, e := range sorted {
		binary.LittleEndian.PutUint32(buf[8*i:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(e.V))
	}
	return fnvHex(buf)
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
