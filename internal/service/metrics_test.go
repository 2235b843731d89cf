package service

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	greedy "repro"
	"repro/internal/dynamic"
	"repro/internal/fault"
)

// TestHistogramBucketBoundObservation: an observation exactly equal to
// a bucket's upper bound lands in THAT bucket (SearchFloat64s returns
// the first bound >= v), never the next one.
func TestHistogramBucketBoundObservation(t *testing.T) {
	h := newHistogram()
	h.observe(0.001) // == latencyBounds[3]
	for i, c := range h.counts {
		want := int64(0)
		if i == 3 {
			want = 1
		}
		if c != want {
			t.Errorf("bucket %d count = %d, want %d", i, c, want)
		}
	}
	// The quantile of the sole observation is the observation itself:
	// the bucket's interpolation ceiling is min(bound, max) = 0.001.
	if got := h.quantile(0.5); got != 0.001 {
		t.Errorf("p50 of a bound-exact single observation = %g, want 0.001", got)
	}
}

// TestHistogramSingleObservation: with one observation every quantile
// is that observation — p50 = p99 = max — not an interpolated value
// below it.
func TestHistogramSingleObservation(t *testing.T) {
	for _, v := range []float64{0.00017, 0.0042, 3.3, 25.0 /* unbounded last bucket */} {
		h := newHistogram()
		h.observe(v)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
			if got := h.quantile(q); got != v {
				t.Errorf("obs %g: q%g = %g, want max %g", v, q, got, v)
			}
		}
		if h.max != v {
			t.Errorf("obs %g: max = %g", v, h.max)
		}
	}
}

// TestHistogramUnboundedLastBucket: with every observation in the +Inf
// bucket, quantiles clamp to the recorded max — finite, at least the
// last finite bound, never above max.
func TestHistogramUnboundedLastBucket(t *testing.T) {
	h := newHistogram()
	obs := []float64{11, 30, 60, 120, 500}
	for _, v := range obs {
		h.observe(v)
	}
	lastBound := latencyBounds[len(latencyBounds)-1]
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("q%g = %v, want finite", q, got)
		}
		if got < lastBound || got > h.max {
			t.Errorf("q%g = %g outside [%g, %g]", q, got, lastBound, h.max)
		}
	}
	// The top quantile of the bucket reaches the max exactly.
	if got := h.quantile(0.99); got != h.max {
		t.Errorf("p99 with all %d obs in last bucket = %g, want max %g (rank = count)", len(obs), got, h.max)
	}
}

// TestHistogramQuantileOnEmptyBucketBoundary: a rank landing exactly on
// a cumulative-count boundary that is followed by empty buckets must
// resolve inside the bucket that holds the observations, and ranks just
// past it must skip the empty buckets deterministically.
func TestHistogramQuantileOnEmptyBucketBoundary(t *testing.T) {
	h := newHistogram()
	// Two obs in bucket 1 (0.0001, 0.00025], three in bucket 4
	// (0.001, 0.0025]; buckets 2-3 stay empty.
	h.observe(0.0002)
	h.observe(0.0002)
	h.observe(0.002)
	h.observe(0.002)
	h.observe(0.0024)

	// rank = ⌈0.4·5⌉ = 2: exactly the cumulative boundary of bucket 1.
	// The answer must come from bucket 1 — at its upper edge — not from
	// an empty bucket or bucket 4.
	got := h.quantile(0.4)
	if got != latencyBounds[1] {
		t.Errorf("p40 = %g, want bucket-1 upper bound %g", got, latencyBounds[1])
	}
	// rank = ⌈0.41·5⌉ = 3: first observation of bucket 4; lower edge of
	// that bucket's interpolation range.
	got = h.quantile(0.41)
	lo, hi := latencyBounds[3], latencyBounds[4]
	if got <= lo || got > hi {
		t.Errorf("p41 = %g, want inside (%g, %g]", got, lo, hi)
	}
	// Monotonicity across the boundary.
	if h.quantile(0.4) >= h.quantile(0.41) {
		t.Errorf("quantiles not monotone across empty-bucket boundary: p40=%g p41=%g", h.quantile(0.4), h.quantile(0.41))
	}
}

// TestHistogramEmpty: the zero histogram answers 0 for everything.
func TestHistogramEmpty(t *testing.T) {
	h := newHistogram()
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %g", got)
	}
	snap := snapshotHistogram(h)
	if snap.Count != 0 || snap.P99MS != 0 || snap.MeanMS != 0 {
		t.Errorf("empty snapshot: %+v", snap)
	}
}

// TestMetricsAdaptiveExecutedCounter: adaptive completions increment
// the adaptive counter alongside executed; fixed ones do not; failed
// and cancelled adaptive runs count in neither.
func TestMetricsAdaptiveExecutedCounter(t *testing.T) {
	m := NewMetrics()
	repair := &dynamic.RepairStats{
		MIS: dynamic.RepairCost{Visited: 7, Flipped: 2},
		MM:  dynamic.RepairCost{Visited: 5, Flipped: 1},
	}
	m.jobFinished(ProblemMIS, StateDone, true, nil, time.Millisecond, 2*time.Millisecond)
	m.jobFinished(ProblemMIS, StateDone, false, repair, time.Millisecond, 2*time.Millisecond)
	m.jobFinished(ProblemMM, StateFailed, true, nil, time.Millisecond, 2*time.Millisecond)
	m.jobFinished(ProblemSF, StateCancelled, true, nil, time.Millisecond, 2*time.Millisecond)
	s := m.snapshot()
	if s.Jobs.Executed != 2 {
		t.Errorf("executed = %d, want 2", s.Jobs.Executed)
	}
	if s.Jobs.AdaptiveExecuted != 1 {
		t.Errorf("adaptive_executed = %d, want 1", s.Jobs.AdaptiveExecuted)
	}
	if s.Jobs.Repaired != 1 {
		t.Errorf("repaired = %d, want 1", s.Jobs.Repaired)
	}
	if s.Jobs.RepairVisited != 12 || s.Jobs.RepairFlipped != 3 {
		t.Errorf("repair_visited/flipped = %d/%d, want 12/3", s.Jobs.RepairVisited, s.Jobs.RepairFlipped)
	}
	if s.Jobs.Failed != 1 || s.Jobs.Cancelled != 1 {
		t.Errorf("failed/cancelled = %d/%d, want 1/1", s.Jobs.Failed, s.Jobs.Cancelled)
	}
}

// TestHistogramSnapshotAccessors: the sum/count accessors the
// Prometheus path depends on — SumSeconds converts the snapshot's
// millisecond sum back to seconds, CumulativeBuckets accumulates the
// per-bucket counts in le order and ends at Count — including the
// zero-observation histogram, whose exposition must still be valid.
func TestHistogramSnapshotAccessors(t *testing.T) {
	h := newHistogram()
	obs := []float64{0.0005, 0.002, 4}
	var want float64
	for _, v := range obs {
		h.observe(v)
		want += v
	}
	snap := snapshotHistogram(h)
	if got := snap.SumSeconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SumSeconds = %g, want %g", got, want)
	}
	cum := snap.CumulativeBuckets()
	if len(cum) != len(snap.Buckets) {
		t.Fatalf("cumulative length %d != bucket length %d", len(cum), len(snap.Buckets))
	}
	if cum[len(cum)-1] != snap.Count {
		t.Errorf("final cumulative bucket %d != count %d", cum[len(cum)-1], snap.Count)
	}
	var run int64
	for i, c := range cum {
		if c < run {
			t.Errorf("cumulative bucket %d decreases: %d < %d", i, c, run)
		}
		if diff := c - run; diff != snap.Buckets[i] {
			t.Errorf("bucket %d: cumulative diff %d != raw count %d", i, diff, snap.Buckets[i])
		}
		run = c
	}

	empty := snapshotHistogram(newHistogram())
	if empty.SumSeconds() != 0 {
		t.Errorf("empty SumSeconds = %g", empty.SumSeconds())
	}
	ecum := empty.CumulativeBuckets()
	if ecum[len(ecum)-1] != 0 {
		t.Errorf("empty final cumulative bucket = %d", ecum[len(ecum)-1])
	}
}

// TestPromWriterDuplicateFamilyPanics: declaring a family twice is a
// programming error the writer refuses to serialize — real collectors
// reject duplicate family names, so the bug must not reach a scrape.
func TestPromWriterDuplicateFamilyPanics(t *testing.T) {
	p := &promWriter{w: io.Discard, declared: make(map[string]bool)}
	p.counter("x_total", "a counter.", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family declaration did not panic")
		}
	}()
	p.counter("x_total", "a counter.", 2)
}

// TestPrometheusZeroObservationHistogram: a scrape of a fresh service
// must still expose every always-present histogram family with a full,
// valid zero exposition (all buckets 0, sum 0, count 0) and declare
// the per-problem families with no series — never omit the metadata.
func TestPrometheusZeroObservationHistogram(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	// The middleware records the scrape itself only after the handler
	// returned, so the first-ever scrape sees zero observations.
	for _, want := range []string{
		"greedyd_http_request_seconds_count 0\n",
		"greedyd_http_request_seconds_sum 0\n",
		`greedyd_http_request_seconds_bucket{le="+Inf"} 0` + "\n",
		"# TYPE greedyd_job_run_seconds histogram\n",
		"# TYPE greedyd_job_e2e_seconds histogram\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("zero-observation exposition missing %q", strings.TrimSpace(want))
		}
	}
	// No jobs ran: the per-problem families must have headers but no
	// samples.
	if strings.Contains(body, "greedyd_job_run_seconds_bucket") {
		t.Error("job_run_seconds has series despite zero executed jobs")
	}
}

// TestPrometheusExposition scrapes GET /metrics after real traffic and
// validates the text format line by line: every family declares HELP
// then TYPE exactly once, every sample sits inside its family's block,
// histogram buckets are cumulative with le="+Inf" equal to _count, and
// the counters reflect the traffic that was just generated.
func TestPrometheusExposition(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, TraceRoundSample: 1})
	ctx := context.Background()

	info, err := c.Generate(ctx, GenSpec{Generator: "random", N: 1000, M: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, JobRequest{GraphID: info.ID, Problem: "mis", Plan: greedy.ResolvePlan(greedy.WithSeed(1))})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID, time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("wait: state=%v err=%v", st.State, err)
	}
	// One deliberate 404 so the 4xx class is non-zero.
	if resp, err := http.Get(srv.URL + "/v1/jobs/jmissing"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("expected 404, got %d", resp.StatusCode)
		}
	} else {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type %q, want %q", ct, promContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition does not end with a newline")
	}

	type hseries struct {
		cum      []int64
		infSeen  bool
		inf      int64
		sum      float64
		sumSeen  bool
		count    int64
		cntSeen  bool
		lastBond float64
	}
	helpSeen := make(map[string]bool)
	typeSeen := make(map[string]string)
	hists := make(map[string]map[string]*hseries) // family -> label key -> series
	values := make(map[string]float64)            // "name{labels}" -> value of last sample
	cur, curType := "", ""

	labelKeyOf := func(labels string) (string, string, bool) {
		// Split off a trailing le label (the writer renders it last).
		if labels == "" {
			return "", "", false
		}
		i := strings.LastIndex(labels, `le="`)
		if i < 0 {
			return labels, "", false
		}
		le := strings.TrimSuffix(labels[i+len(`le="`):], `"`)
		key := strings.TrimSuffix(labels[:i], ",")
		return key, le, true
	}

	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		lineNo := n + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			name := fields[0]
			if helpSeen[name] {
				t.Fatalf("line %d: duplicate HELP for family %s", lineNo, name)
			}
			helpSeen[name] = true
			cur, curType = name, ""
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			if name != cur {
				t.Fatalf("line %d: TYPE %s not immediately after its HELP (current family %s)", lineNo, name, cur)
			}
			if _, dup := typeSeen[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for family %s", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", lineNo, typ)
			}
			typeSeen[name] = typ
			curType = typ
		case line == "" || strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected line %q", lineNo, line)
		default:
			if curType == "" {
				t.Fatalf("line %d: sample before any TYPE declaration: %q", lineNo, line)
			}
			name, labels := line, ""
			rest := ""
			if i := strings.IndexByte(line, '{'); i >= 0 {
				j := strings.LastIndexByte(line, '}')
				if j < i {
					t.Fatalf("line %d: malformed labels: %q", lineNo, line)
				}
				name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
			} else {
				fields := strings.Fields(line)
				if len(fields) != 2 {
					t.Fatalf("line %d: malformed sample: %q", lineNo, line)
				}
				name, rest = fields[0], fields[1]
			}
			val, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", lineNo, rest, err)
			}
			values[name+"{"+labels+"}"] = val

			base := name
			if curType == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if strings.TrimSuffix(name, suf) == cur {
						base = cur
						break
					}
				}
			}
			if base != cur {
				t.Fatalf("line %d: sample %s outside its family block (current family %s)", lineNo, name, cur)
			}
			if curType != "histogram" {
				continue
			}
			key, le, isBucket := labelKeyOf(labels)
			if hists[cur] == nil {
				hists[cur] = make(map[string]*hseries)
			}
			hs := hists[cur][key]
			if hs == nil {
				hs = &hseries{lastBond: math.Inf(-1)}
				hists[cur][key] = hs
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !isBucket {
					t.Fatalf("line %d: bucket sample without le label: %q", lineNo, line)
				}
				if le == "+Inf" {
					hs.infSeen, hs.inf = true, int64(val)
					break
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("line %d: bad le %q: %v", lineNo, le, err)
				}
				if bound <= hs.lastBond {
					t.Fatalf("line %d: le bounds not increasing (%g after %g)", lineNo, bound, hs.lastBond)
				}
				hs.lastBond = bound
				hs.cum = append(hs.cum, int64(val))
			case strings.HasSuffix(name, "_sum"):
				hs.sum, hs.sumSeen = val, true
			case strings.HasSuffix(name, "_count"):
				hs.count, hs.cntSeen = int64(val), true
			}
		}
	}

	// Every family declared both HELP and TYPE.
	for name := range helpSeen {
		if _, ok := typeSeen[name]; !ok {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
	}
	for name := range typeSeen {
		if !helpSeen[name] {
			t.Errorf("family %s has TYPE but no HELP", name)
		}
	}

	// The families the dashboards depend on are present.
	for _, want := range []string{
		"greedyd_jobs_submitted_total", "greedyd_jobs_executed_total",
		"greedyd_jobs_queued", "greedyd_registry_graphs",
		"greedyd_trace_events_total", "greedyd_goroutines",
		"greedyd_http_requests_total", "greedyd_http_request_seconds",
		"greedyd_job_run_seconds", "greedyd_job_e2e_seconds",
	} {
		if _, ok := typeSeen[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}

	// Histogram invariants: cumulative buckets, +Inf present and equal
	// to _count, sum and count emitted for every series.
	for fam, series := range hists {
		for key, hs := range series {
			var prev int64
			for i, c := range hs.cum {
				if c < prev {
					t.Errorf("%s{%s}: bucket %d not cumulative (%d < %d)", fam, key, i, c, prev)
				}
				prev = c
			}
			if !hs.infSeen || !hs.sumSeen || !hs.cntSeen {
				t.Fatalf("%s{%s}: incomplete histogram (inf=%v sum=%v count=%v)", fam, key, hs.infSeen, hs.sumSeen, hs.cntSeen)
			}
			if hs.inf != hs.count {
				t.Errorf("%s{%s}: le=+Inf bucket %d != count %d", fam, key, hs.inf, hs.count)
			}
			if len(hs.cum) > 0 && hs.cum[len(hs.cum)-1] > hs.inf {
				t.Errorf("%s{%s}: last finite bucket %d exceeds +Inf %d", fam, key, hs.cum[len(hs.cum)-1], hs.inf)
			}
			if hs.count > 0 && hs.sum <= 0 {
				t.Errorf("%s{%s}: %d observations but sum %g", fam, key, hs.count, hs.sum)
			}
		}
	}

	// The traffic just generated is visible.
	if v := values["greedyd_jobs_executed_total{}"]; v < 1 {
		t.Errorf("jobs_executed_total = %g, want >= 1", v)
	}
	if v := values[`greedyd_http_requests_total{class="2xx"}`]; v < 2 {
		t.Errorf("2xx requests = %g, want >= 2", v)
	}
	if v := values[`greedyd_http_requests_total{class="4xx"}`]; v < 1 {
		t.Errorf("4xx requests = %g, want >= 1", v)
	}
	if v := values["greedyd_trace_events_total{}"]; v < 1 {
		t.Errorf("trace_events_total = %g, want >= 1", v)
	}
	if mis, ok := hists["greedyd_job_run_seconds"][`problem="mis"`]; !ok || mis.count < 1 {
		t.Errorf("job_run_seconds{problem=\"mis\"} missing or empty")
	}
}

// TestPrometheusScrapeDeterministic pins the exposition's byte-level
// determinism: the family order is fixed and per-problem series are
// emitted sorted, so serializing the SAME snapshot repeatedly must
// produce byte-identical output. (Two live scrapes legitimately differ
// — the middleware counts the scrape itself — so the property is
// snapshot-to-bytes, which is what a diff-based alerting pipeline or a
// golden-file test downstream would rely on.)
func TestPrometheusScrapeDeterministic(t *testing.T) {
	svc, err := New(Config{Workers: 1, TraceRoundSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// Traffic over two problems so the sorted per-problem series paths
	// (run/e2e latency families) carry multiple label values.
	info, err := c.Generate(ctx, GenSpec{Generator: "random", N: 500, M: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, prob := range []string{"mis", "mm"} {
		sub, err := c.Submit(ctx, JobRequest{GraphID: info.ID, Problem: prob, Plan: greedy.ResolvePlan(greedy.WithSeed(2))})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.Wait(ctx, sub.ID, time.Millisecond); err != nil || st.State != StateDone {
			t.Fatalf("%s: wait: state=%v err=%v", prob, st.State, err)
		}
	}
	// One live scrape exercises the HTTP handler path end to end.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	snap := svc.Snapshot()
	var first []byte
	for i := 0; i < 5; i++ {
		var buf strings.Builder
		if err := WritePrometheus(&buf, snap); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if i == 0 {
			first = []byte(buf.String())
			if len(first) == 0 {
				t.Fatal("empty exposition")
			}
			continue
		}
		if buf.String() != string(first) {
			t.Fatalf("scrape %d differs from scrape 0 over the same snapshot:\n--- first ---\n%s\n--- scrape %d ---\n%s", i, first, i, buf.String())
		}
	}
}

// TestTerminalStateCountedBeforeVisible spins on the status of jobs
// that end done, deadline_exceeded, failed and cancelled, and reads the
// counters the moment each terminal state shows: every outcome a caller
// can see must already be counted.
func TestTerminalStateCountedBeforeVisible(t *testing.T) {
	t.Cleanup(fault.Reset)
	svc := newTestService(t, Config{Workers: 1})
	small := addGraph(t, svc, 2_000, 1)
	// Prefix size 2 keeps a job on this graph in its round loop for far
	// longer than a 1 ms budget, even at GOMAXPROCS=1.
	big, _, err := svc.Generate(GenSpec{Generator: "random", N: 300_000, M: 600_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want JobCounters
	for i := 0; i < 32; i++ {
		spec := JobSpec{GraphID: small.ID, Problem: ProblemMIS, Plan: greedy.Plan{Seed: uint64(100 + i)}}
		kind := i % 4
		// Jobs on the big graph share one seed, so the worker's Solver
		// keeps their order and parent lists; none of them ends done,
		// so none absorbs the next.
		switch kind {
		case 1:
			spec.GraphID, spec.TimeoutMS = big.ID, 1
			spec.Plan = greedy.Plan{Seed: 7, PrefixSize: 2}
		case 2:
			if err := fault.ArmSpec("worker.run=error*1"); err != nil {
				t.Fatal(err)
			}
		case 3:
			spec.GraphID = big.ID
			spec.Plan = greedy.Plan{Seed: 7, PrefixSize: 2}
		}
		st, _, err := svc.Engine().Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		cancelled := false
		for st.State == StateQueued || st.State == StateRunning {
			if kind == 3 && st.State == StateRunning && !cancelled {
				if _, err := svc.Engine().Cancel(st.ID); err != nil {
					t.Fatal(err)
				}
				cancelled = true
			}
			// Yield, so the worker runs even at GOMAXPROCS=1.
			runtime.Gosched()
			if st, err = svc.Engine().Status(st.ID); err != nil {
				t.Fatal(err)
			}
		}
		got := svc.Snapshot().Jobs
		switch st.State {
		case StateDone:
			want.Executed++
		case StateDeadline:
			want.DeadlineExceeded++
		case StateFailed:
			want.Failed++
		case StateCancelled:
			want.Cancelled++
		}
		if got.Executed < want.Executed || got.DeadlineExceeded < want.DeadlineExceeded ||
			got.Failed < want.Failed || got.Cancelled < want.Cancelled {
			t.Fatalf("job %d seen %s with counters executed=%d deadline=%d failed=%d cancelled=%d, want at least %d, %d, %d, %d",
				i, st.State, got.Executed, got.DeadlineExceeded, got.Failed, got.Cancelled,
				want.Executed, want.DeadlineExceeded, want.Failed, want.Cancelled)
		}
	}
	if want.Executed == 0 || want.DeadlineExceeded == 0 || want.Failed == 0 || want.Cancelled == 0 {
		t.Fatalf("not every outcome was observed: %+v", want)
	}
}
