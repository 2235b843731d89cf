// Command loadgen drives closed-loop mixed traffic (any of the five
// problems: mis, mm, sf, coloring, hittingset — see -problems) against
// a running greedyd and reports overall and per-problem throughput,
// latency percentiles, and the server's allocation cost per executed
// job. Each worker repeatedly
// submits a job for a random (problem, seed) pair drawn from a bounded
// pool — so a configurable fraction of traffic hits the daemon's
// idempotency cache, as deterministic traffic would in production —
// then polls until the job finishes.
//
// With -cancel-demo it instead demonstrates job cancellation: it
// submits a deliberately long-running job on a large graph, waits for
// the daemon to report round progress, issues DELETE /v1/jobs/{id},
// and measures how long the running job takes to acknowledge the
// cancellation (bounded by one round of the algorithm).
//
// With -churn it drives the dynamic-graph path: alongside the submit
// workers, a churner goroutine PATCHes the newest graph version with
// randomized edge-update batches (mirrored locally so every batch is
// valid), the submit workers target the newest version with dynamic
// plans, and the report shows how many executions the daemon answered
// by incremental session repair instead of recompute.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -duration 10s -concurrency 8
//	loadgen -addr http://localhost:8080 -gen rmat -n 131072 -m 1000000
//	loadgen -addr http://localhost:8080 -job-seeds 1000000   # ~all unique
//	loadgen -addr http://localhost:8080 -cancel-demo -n 2000000 -m 10000000
//	loadgen -addr http://localhost:8080 -churn -churn-batch 8 -churn-interval 50ms
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	greedy "repro"
	"repro/internal/bench"
	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "greedyd base URL")
		gen         = flag.String("gen", "random", "graph family: random|rmat (internal/bench workload kinds)")
		n           = flag.Int("n", 100_000, "vertex count of the generated graph")
		m           = flag.Int("m", 500_000, "edge count of the generated graph")
		shrink      = flag.Int("shrink", -1, "if >= 0, use the paper's workload scaled by 2^-shrink instead of -n/-m")
		graphSeed   = flag.Uint64("graph-seed", 42, "generator seed")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive load")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers")
		problems    = flag.String("problems", "mis,mm,sf", "comma-separated problem mix")
		algorithm   = flag.String("algorithm", "prefix", "algorithm for every job")
		adaptive    = flag.Bool("adaptive", false, "submit adaptive-prefix plans (prefix algorithm only)")
		jobSeeds    = flag.Int("job-seeds", 16, "size of the job-seed pool (larger = fewer dedup hits)")
		prefixFrac  = flag.Float64("prefix", 0, "prefix fraction for prefix jobs (0 = library default)")
		rngSeed     = flag.Int64("rng-seed", 1, "client-side traffic shuffle seed")
		poll        = flag.Duration("poll", time.Millisecond, "job status poll interval")
		cancelDemo  = flag.Bool("cancel-demo", false, "run the cancellation demonstration instead of load")
		churn       = flag.Bool("churn", false, "mixed submit/update workload: PATCH edge churn + dynamic-plan jobs on the newest version")
		churnBatch  = flag.Int("churn-batch", 8, "updates per PATCH batch in -churn mode")
		churnEvery  = flag.Duration("churn-interval", 50*time.Millisecond, "delay between PATCH batches in -churn mode")
		traceSlow   = flag.Bool("trace", false, "after the run, fetch and pretty-print the server-side trace of the slowest completed job")
		watch       = flag.Bool("watch", false, "subscribe to the server's /v1/events stream during the run and print a live status line every second")
	)
	flag.Parse()

	algo, err := greedy.ParseAlgorithm(*algorithm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	if *adaptive && algo != greedy.AlgoPrefix {
		fmt.Fprintf(os.Stderr, "loadgen: -adaptive requires -algorithm prefix, got %q\n", algo)
		os.Exit(2)
	}
	// Overload answers (429 queue-full, 503 draining/ingest-paused) are
	// retried inside the client, honoring the server's Retry-After, so
	// the submit loop below only counts genuine failures.
	client := &service.Client{
		BaseURL: strings.TrimRight(*addr, "/"),
		Retry:   service.BackoffPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond},
	}
	ctx := context.Background()

	// Fail fast with a non-zero exit when the server is unreachable,
	// instead of spinning submit failures for the whole duration and
	// printing an all-zero report.
	if _, perr := client.Metrics(ctx); perr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: server unreachable at %s: %v\n", *addr, perr)
		os.Exit(1)
	}

	if *cancelDemo {
		if derr := runCancelDemo(ctx, client, *n, *m, *graphSeed, *poll); derr != nil {
			fmt.Fprintf(os.Stderr, "loadgen: cancel demo: %v\n", derr)
			os.Exit(1)
		}
		return
	}

	if *jobSeeds < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -job-seeds must be >= 1")
		os.Exit(2)
	}
	if *concurrency < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -concurrency must be >= 1")
		os.Exit(2)
	}
	mix := strings.Split(*problems, ",")
	for _, p := range mix {
		if _, perr := service.ParseProblem(strings.TrimSpace(p)); perr != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", perr)
			os.Exit(2)
		}
	}
	if *churn {
		// Keep only the problems a dynamic plan can run, rather than
		// submitting jobs the daemon must reject.
		kept, plan := mix[:0], greedy.Plan{Algorithm: algo, Dynamic: true}
		for _, p := range mix {
			if cerr := greedy.Problem(strings.TrimSpace(p)).Check(plan); cerr != nil {
				fmt.Fprintf(os.Stderr, "loadgen: -churn drops %s from the problem mix: %v\n", p, cerr)
				continue
			}
			kept = append(kept, p)
		}
		if mix = kept; len(mix) == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -churn keeps no problem of -problems")
			os.Exit(2)
		}
	}

	w := bench.Workload{Kind: *gen, N: *n, M: *m, Seed: *graphSeed}
	if *shrink >= 0 {
		w = bench.DefaultScale(*gen, uint(*shrink))
	}

	gresp, err := client.Generate(ctx, service.GenSpec{
		Generator: w.Kind, N: w.N, M: w.M, Seed: w.Seed, Label: w.String(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: generating %s: %v\n", w, err)
		os.Exit(1)
	}
	fmt.Printf("loadgen: workload %s -> graph %s (n=%d m=%d, %d bytes, deduped=%v)\n",
		w, gresp.ID, gresp.N, gresp.M, gresp.Bytes, gresp.Deduped)

	before, err := client.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: metrics: %v\n", err)
		os.Exit(1)
	}

	type sample struct {
		problem string
		latency time.Duration
		jobID   string
	}
	var (
		mu       sync.Mutex
		samples  []sample
		failures int
	)
	started := time.Now()
	deadline := started.Add(*duration)

	// The newest graph version; submit workers read it, the churner
	// replaces it after every successful PATCH.
	var latestID atomic.Value
	latestID.Store(gresp.ID)
	var patches, patchFailures, patchedEdges int64
	var churnWG sync.WaitGroup
	if *churn {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			runChurner(ctx, client, w, &latestID, deadline,
				*churnBatch, *churnEvery, *rngSeed, &patches, &patchFailures, &patchedEdges)
		}()
	}

	// The watcher consumes the server's live event stream alongside the
	// load: it observes completions and sampled phase profiles as the
	// server emits them, rather than polling.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var watchWG sync.WaitGroup
	if *watch {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			runWatcher(watchCtx, client)
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < *concurrency; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*rngSeed + int64(worker)))
			for time.Now().Before(deadline) {
				problem := strings.TrimSpace(mix[rng.Intn(len(mix))])
				seed := uint64(rng.Intn(*jobSeeds))
				start := time.Now()
				resp, serr := client.Submit(ctx, service.JobRequest{
					GraphID: latestID.Load().(string),
					Problem: problem,
					Plan: greedy.Plan{Algorithm: algo, Seed: seed, PrefixFrac: *prefixFrac,
						AdaptivePrefix: *adaptive, Dynamic: *churn},
				})
				if serr != nil {
					// The client already backed off through transient
					// overload; whatever reaches here is a real failure.
					mu.Lock()
					failures++
					mu.Unlock()
					continue
				}
				st := resp.JobStatus
				if !st.State.Terminal() {
					st, serr = client.Wait(ctx, st.ID, *poll)
					if serr != nil {
						mu.Lock()
						failures++
						mu.Unlock()
						continue
					}
				}
				lat := time.Since(start)
				if lat < 0 {
					// Clock stepped backwards mid-measurement; a negative
					// latency would corrupt the percentile report.
					lat = 0
				}
				mu.Lock()
				if st.State == service.StateDone {
					samples = append(samples, sample{problem: problem, latency: lat, jobID: st.ID})
				} else {
					failures++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	churnWG.Wait()
	stopWatch()
	watchWG.Wait()
	// Measured wall time, not the nominal -duration: workers finish
	// their in-flight job after the deadline, and throughput must not
	// be overstated by dividing by the shorter nominal window.
	elapsed := time.Since(started)

	after, err := client.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: metrics: %v\n", err)
		os.Exit(1)
	}

	total := len(samples)
	// Degenerate runs — the server went away mid-run, every submission
	// failed, or the duration was too short for a single job — must not
	// print an all-zero report that reads like a healthy measurement.
	if total == 0 {
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: no job completed (%d failures in %v); server down or rejecting?\n",
				failures, elapsed.Round(time.Millisecond))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loadgen: no job was submitted in %v; increase -duration\n",
			elapsed.Round(time.Millisecond))
		os.Exit(1)
	}
	rate := float64(total) / elapsed.Seconds()
	fmt.Printf("loadgen: %d jobs ok, %d failed in %v -> %.1f jobs/s (%d workers)\n",
		total, failures, elapsed.Round(time.Millisecond), rate, *concurrency)
	// Counter deltas are clamped at zero: a server restart mid-run
	// resets its counters, and a negative or wrapped delta would turn
	// the percentage and per-job lines into nonsense (negative, NaN on
	// 0/0, or astronomically large from uint64 wraparound).
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	submitted := clamp(after.Jobs.Submitted - before.Jobs.Submitted)
	dedup := clamp(after.Jobs.DedupHits - before.Jobs.DedupHits)
	executed := clamp(after.Jobs.Executed - before.Jobs.Executed)
	pct := 0.0
	if submitted > 0 {
		pct = 100 * float64(dedup) / float64(submitted)
	}
	fmt.Printf("loadgen: server saw %d submissions, %d dedup hits (%.1f%%), %d executions\n",
		submitted, dedup, pct, executed)
	if *churn {
		repaired := clamp(after.Jobs.Repaired - before.Jobs.Repaired)
		serverPatches := clamp(after.Registry.Patches - before.Registry.Patches)
		repairedPct := 0.0
		if executed > 0 {
			repairedPct = 100 * float64(repaired) / float64(executed)
		}
		fmt.Printf("loadgen: churn: %d PATCH batches ok (%d updates, %d failures), server counted %d patches\n",
			patches, patchedEdges, patchFailures, serverPatches)
		fmt.Printf("loadgen: churn: %d/%d executions answered by incremental repair (%.1f%%), final version %s\n",
			repaired, executed, repairedPct, latestID.Load().(string))
		if patches > 0 && repaired == 0 && executed > 0 {
			fmt.Fprintln(os.Stderr, "loadgen: churn: WARNING: no execution was repaired; is -dynamic-sessions disabled on the server?")
		}
	}
	switch {
	case executed > 0 && after.Runtime.Mallocs >= before.Runtime.Mallocs &&
		after.Runtime.TotalAllocBytes >= before.Runtime.TotalAllocBytes:
		mallocs := after.Runtime.Mallocs - before.Runtime.Mallocs
		allocBytes := after.Runtime.TotalAllocBytes - before.Runtime.TotalAllocBytes
		gcs := after.Runtime.NumGC - before.Runtime.NumGC
		fmt.Printf("loadgen: server allocation: %.0f mallocs/executed job, %.0f KiB/executed job, %d GCs (per-worker Solver reuse)\n",
			float64(mallocs)/float64(executed), float64(allocBytes)/1024/float64(executed), gcs)
	case executed > 0:
		fmt.Println("loadgen: server allocation: unavailable (runtime counters went backwards; server restarted mid-run?)")
	}

	byProblem := map[string][]time.Duration{}
	var all []time.Duration
	for _, s := range samples {
		byProblem[s.problem] = append(byProblem[s.problem], s.latency)
		all = append(all, s.latency)
	}
	// Each line reports a problem's own completion rate alongside its
	// latency percentiles: the mix is drawn uniformly at random, so a
	// problem whose rate lags its share of the mix is the one holding
	// workers (and the overall jobs/s) back.
	printLine := func(name string, lats []time.Duration) {
		if len(lats) == 0 {
			return
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) time.Duration {
			i := int(p * float64(len(lats)-1))
			return lats[i]
		}
		fmt.Printf("loadgen: %-10s n=%-6d %6.1f jobs/s p50=%-10v p90=%-10v p99=%-10v p999=%-10v max=%v\n",
			name, len(lats), float64(len(lats))/elapsed.Seconds(),
			q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
			q(0.99).Round(time.Microsecond), q(0.999).Round(time.Microsecond),
			lats[len(lats)-1].Round(time.Microsecond))
	}
	printLine("all", all)
	names := make([]string, 0, len(byProblem))
	for p := range byProblem {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		printLine(p, byProblem[p])
	}

	if *traceSlow {
		slowest := samples[0]
		for _, s := range samples[1:] {
			if s.latency > slowest.latency {
				slowest = s
			}
		}
		printSlowestTrace(ctx, client, slowest.jobID, slowest.problem, slowest.latency)
	}

	if failures > 0 {
		os.Exit(1)
	}
}

// runWatcher tails the server's /v1/events stream (done + phase events)
// for the duration of the run and prints a one-line status every
// second: completion throughput as the server reports it, which engine
// phase is eating the sampled round time, and how many events the
// stream dropped on the floor for this subscriber (from the server's
// heartbeat comments).
func runWatcher(ctx context.Context, client *service.Client) {
	var done, phaseSamples int64
	var phaseMS [3]float64 // check, commit, slide
	phaseNames := [3]string{"check", "commit", "slide"}
	var dropped uint64
	start := time.Now()
	last := start
	status := func() {
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 {
			return
		}
		slowest := 0
		var total float64
		for i, ms := range phaseMS {
			total += ms
			if ms > phaseMS[slowest] {
				slowest = i
			}
		}
		line := fmt.Sprintf("loadgen: watch: %.1f jobs/s done", float64(done)/elapsed)
		if total > 0 {
			line += fmt.Sprintf(", slowest phase %s (%.0f%% of %d sampled rounds)",
				phaseNames[slowest], 100*phaseMS[slowest]/total, phaseSamples)
		}
		line += fmt.Sprintf(", stream drops %d", dropped)
		fmt.Println(line)
	}
	err := client.Events(ctx, service.EventFilter{Kinds: []string{"done", "phase"}},
		func(ev service.StreamEvent) error {
			if ev.IsComment() {
				// Heartbeats read ": hb dropped=N".
				if _, after, ok := strings.Cut(ev.Comment, "dropped="); ok {
					fmt.Sscanf(after, "%d", &dropped)
				}
			} else if te, terr := ev.TraceEvent(); terr == nil {
				switch te.Kind {
				case trace.KindDone:
					done++
				case trace.KindPhase:
					phaseSamples++
					phaseMS[0] += te.CheckMS
					phaseMS[1] += te.CommitMS
					phaseMS[2] += te.SlideMS
				}
			}
			if time.Since(last) >= time.Second {
				last = time.Now()
				status()
			}
			return nil
		})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "loadgen: watch: stream ended: %v\n", err)
	}
	status()
}

// printSlowestTrace fetches and pretty-prints the server-side trace of
// the run's slowest completed job: each event at its offset from the
// job's first recorded event, with the fields that carry information
// for its kind. A long queue span points at saturation, a slow run
// span with few sampled rounds at a hard input, repeated repair events
// at patch churn.
func printSlowestTrace(ctx context.Context, client *service.Client, jobID, problem string, lat time.Duration) {
	tr, err := client.JobTrace(ctx, jobID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: trace of slowest job %s unavailable: %v\n", jobID, err)
		return
	}
	fmt.Printf("loadgen: slowest job %s (%s, client-observed %v): %d trace events\n",
		jobID, problem, lat.Round(time.Microsecond), len(tr.Events))
	if len(tr.Events) == 0 {
		fmt.Println("loadgen:   (events already overwritten in the server's ring buffer)")
		return
	}
	t0 := tr.Events[0].Time
	for _, ev := range tr.Events {
		var detail []string
		add := func(format string, args ...any) { detail = append(detail, fmt.Sprintf(format, args...)) }
		if ev.Name != "" {
			add("%s", ev.Name)
		}
		if ev.DurMS != 0 {
			add("dur=%.3fms", ev.DurMS)
		}
		if ev.Round != 0 {
			add("round=%d prefix=%d attempted=%d accepted=%d inspections=%d",
				ev.Round, ev.Prefix, ev.Attempted, ev.Accepted, ev.Inspections)
		}
		if ev.Kind == trace.KindRepair {
			add("batch=%d seeds=%d visited=%d flipped=%d frontier_peak=%d changed=%d",
				ev.Batch, ev.Seeds, ev.Visited, ev.Flipped, ev.FrontierPeak, ev.Changed)
		}
		fmt.Printf("loadgen:   +%-12v %-9s %s\n",
			ev.Time.Sub(t0).Round(time.Microsecond), ev.Kind, strings.Join(detail, " "))
	}
}

// runChurner mirrors the server-side graph locally (via the bench
// harness's ChurnMutator, the same generator the churn matrix uses)
// and drives PATCH batches against the newest version until the
// deadline. Batches are drawn without touching the mirror and
// committed only after the server accepts them, so a PATCH failure
// leaves the mirror consistent and is counted instead of retried
// blindly.
func runChurner(ctx context.Context, client *service.Client, w bench.Workload, latestID *atomic.Value,
	deadline time.Time, batchSize int, interval time.Duration, seed int64,
	patches, failures, updates *int64) {
	g := w.Build()
	if g.NumVertices() < 2 {
		return
	}
	cm := bench.NewChurnMutator(g, uint64(seed)+7919)
	for time.Now().Before(deadline) {
		time.Sleep(interval)
		if !time.Now().Before(deadline) {
			return
		}
		batch := cm.Draw(batchSize)
		if len(batch) == 0 {
			continue
		}
		req := service.PatchRequest{}
		for _, up := range batch {
			req.Updates = append(req.Updates, service.PatchUpdate{Op: up.Op.String(), U: up.U, V: up.V})
		}
		resp, err := client.Patch(ctx, latestID.Load().(string), req)
		if err != nil {
			atomic.AddInt64(failures, 1)
			continue
		}
		cm.Commit(batch)
		latestID.Store(resp.ID)
		atomic.AddInt64(patches, 1)
		atomic.AddInt64(updates, int64(len(batch)))
	}
}

// runCancelDemo submits one long-running job (the prefix algorithm
// with a tiny absolute prefix on a large random graph keeps a worker
// busy for a while while checking cancellation at every round
// boundary), waits until the daemon reports it running, cancels it,
// and reports how long the round loop took to acknowledge.
func runCancelDemo(ctx context.Context, client *service.Client, n, m int, seed uint64, poll time.Duration) error {
	gresp, err := client.Generate(ctx, service.GenSpec{Generator: "random", N: n, M: m, Seed: seed})
	if err != nil {
		return fmt.Errorf("generating graph: %w", err)
	}
	fmt.Printf("loadgen: cancel demo on graph %s (n=%d m=%d)\n", gresp.ID, gresp.N, gresp.M)

	// A tiny absolute prefix makes the prefix algorithm take ~n/prefix
	// rounds: long overall, yet each round is microseconds, so the
	// one-round cancellation bound predicts near-immediate abort.
	sub, err := client.Submit(ctx, service.JobRequest{
		GraphID: gresp.ID,
		Problem: "mis",
		Plan:    greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 1, PrefixSize: 2},
	})
	if err != nil {
		return fmt.Errorf("submitting job: %w", err)
	}
	fmt.Printf("loadgen: submitted long job %s (prefix_size=2 => ~n/2 rounds)\n", sub.ID)

	// Wait until it is actually running and has made round progress.
	deadline := time.Now().Add(30 * time.Second)
	var st service.JobStatus
	for {
		st, err = client.Status(ctx, sub.ID)
		if err != nil {
			return err
		}
		if st.State == service.StateRunning && st.Progress != nil && st.Progress.Rounds > 0 {
			break
		}
		if st.State.Terminal() {
			return fmt.Errorf("job finished before it could be cancelled (state %s); use a larger -n/-m", st.State)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job never started running")
		}
		time.Sleep(poll)
	}
	fmt.Printf("loadgen: job running, progress: rounds=%d attempted=%d resolved=%d inspections=%d\n",
		st.Progress.Rounds, st.Progress.Attempted, st.Progress.Resolved, st.Progress.EdgeInspections)

	cancelAt := time.Now()
	if _, cerr := client.Cancel(ctx, sub.ID); cerr != nil {
		return fmt.Errorf("DELETE: %w", cerr)
	}
	final, err := client.Wait(ctx, sub.ID, poll)
	if err != nil {
		return err
	}
	ack := time.Since(cancelAt)
	if final.State != service.StateCancelled {
		return fmt.Errorf("job ended %s, want cancelled", final.State)
	}
	rounds := int64(0)
	if final.Progress != nil {
		rounds = final.Progress.Rounds
	}
	fmt.Printf("loadgen: DELETE acknowledged in %v (state=%s after %d rounds, run_ms=%.1f)\n",
		ack.Round(time.Microsecond), final.State, rounds, final.RunMS)
	fmt.Printf("loadgen: cancel demo ok: a running job aborted within one round\n")
	return nil
}
