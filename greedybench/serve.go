package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/service"
)

const (
	serveSetupReps = 5
	serveBatch     = 64 // updates per PATCH
	pollEvery      = time.Millisecond
	opTimeout      = 30 * time.Second
	recentSpecs    = 4 // completed unique specs the dedup resubmissions cycle through
	// resultTTL bounds how long finished jobs keep their payloads, so the
	// retained payloads level off within the window instead of growing
	// with its length.
	resultTTL = 2 * time.Second
	// residentVersions is how many graph versions the registry budget
	// keeps in memory; older ones are demoted to their blobs.
	residentVersions = 8
)

// server is an in-process greedyd on a fresh data dir, behind a
// loopback listener, driven through service.Client.
type server struct {
	svc       *service.Service
	http      *http.Server
	served    chan struct{}
	dir       string
	transport *http.Transport
	client    *service.Client
}

func startServer(parent string, traced bool, graphBytes int64) (*server, error) {
	dir, err := os.MkdirTemp(parent, "data-")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{
		DataDir:       dir,
		ResultTTL:     resultTTL,
		CacheBytes:    residentVersions * graphBytes,
		TraceCapacity: -1,
	}
	if traced {
		cfg.TraceCapacity = 0 // the default ring
		cfg.TraceRoundSample = 1
	}
	svc, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		svc:       svc,
		http:      &http.Server{Handler: svc.Handler()},
		served:    make(chan struct{}),
		dir:       dir,
		transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}
	s.client = &service.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: s.transport, Timeout: opTimeout},
	}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener, the service and the client connections and
// removes the data dir.
func (s *server) close() {
	_ = s.http.Close() // the serve goroutine reports the closed listener
	<-s.served
	s.transport.CloseIdleConnections()
	s.svc.Close()
	os.RemoveAll(s.dir)
}

// graphBytes estimates a graph's CSR footprint: 8-byte offsets and two
// 4-byte arcs per edge.
func graphBytes(n, m int) int64 { return int64(8*(n+1) + 8*m) }

// payload is the part of a result body the benchmark checks.
type payload struct {
	Checksum string `json:"checksum"`
	Repaired bool   `json:"repaired"`
}

// execRecord is one finished unique job, kept for verification.
type execRecord struct {
	problem string
	seed    uint64
	body    []byte
	sum     string
}

// chainEntry is one PATCH of the version chain and its dynamic job.
type chainEntry struct {
	batch    []greedy.DynamicUpdate
	version  string
	m        int
	problem  string
	sum      string
	measured bool // sent inside the window (warm-up entries are not)
}

// clientStats is what one client measured.
type clientStats struct {
	execMS, hitMS, patchMS  []float64
	ackMS, resultMS, ackPMS []float64
	queueMS, runMS          []float64
	polls, jobs             int
	payloadBytes            int64
	submits, deduped        int
	dynJobs, repaired       int
	execs                   []execRecord
	ops                     int
}

// traffic sends operations to one server and keeps the state the
// operations share: the base graph, the newest version of the PATCH
// chain, and the churn generator that mirrors it.
type traffic struct {
	s       *server
	seed    uint64
	base    string
	newest  string
	churn   *churn
	batch   int
	res     *results
	tr      *tracer
	mu      sync.Mutex // guards chain and recent
	chain   []chainEntry
	recent  []execRecord
	opID    int64
	measure bool
}

func (d *traffic) nextOp() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.opID++
	return d.opID
}

// wait polls a job at a fixed interval until it finishes.
func (d *traffic) wait(ctx context.Context, id string, op int64, parent int, cs *clientStats) (service.JobStatus, error) {
	for {
		time.Sleep(pollEvery)
		sp := d.tr.begin("http.poll", op, parent)
		st, err := d.s.client.Status(ctx, id)
		d.tr.end(sp)
		cs.polls++
		if err != nil {
			return st, err
		}
		switch st.State {
		case service.StateDone:
			return st, nil
		case service.StateFailed, service.StateCancelled, service.StateDeadline:
			return st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
}

// result fetches a done job's body.
func (d *traffic) result(ctx context.Context, id string, op int64, parent int) ([]byte, payload, time.Duration, error) {
	t := time.Now()
	sp := d.tr.begin("http.result", op, parent)
	body, done, err := d.s.client.Result(ctx, id)
	d.tr.end(sp)
	took := time.Since(t)
	var p payload
	switch {
	case err != nil:
	case !done:
		err = fmt.Errorf("job %s: result not ready after done", id)
	default:
		err = json.Unmarshal(body, &p)
	}
	return body, p, took, err
}

// exec submits a unique job, waits for it and fetches its result.
func (d *traffic) exec(ctx context.Context, problem string, seed uint64, cs *clientStats) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	op := d.nextOp()
	root := d.tr.begin("client.exec", op, -1)
	defer d.tr.end(root)
	t := time.Now()
	sp := d.tr.begin("http.submit", op, root)
	resp, err := d.s.client.Submit(ctx, service.JobRequest{
		GraphID: d.base, Problem: problem, Plan: greedy.ResolvePlan(greedy.WithSeed(seed)),
	})
	d.tr.end(sp)
	ack := time.Since(t)
	cs.submits++
	if err != nil {
		return err
	}
	if resp.Deduped {
		cs.deduped++
		return fmt.Errorf("unique %s job (seed %d) was deduplicated", problem, seed)
	}
	st, err := d.wait(ctx, resp.ID, op, root, cs)
	cs.jobs++
	if err != nil {
		return err
	}
	body, p, took, err := d.result(ctx, resp.ID, op, root)
	if err != nil {
		return err
	}
	total := time.Since(t)
	rec := execRecord{problem: problem, seed: seed, body: body, sum: p.Checksum}
	if d.measure {
		cs.execMS = append(cs.execMS, ms(total))
		cs.ackMS = append(cs.ackMS, ms(ack))
		cs.resultMS = append(cs.resultMS, ms(took))
		cs.queueMS = append(cs.queueMS, st.QueueMS)
		cs.runMS = append(cs.runMS, st.RunMS)
		cs.payloadBytes += int64(len(body))
		cs.execs = append(cs.execs, execRecord{problem: problem, seed: seed, sum: p.Checksum})
	}
	d.mu.Lock()
	d.recent = append(d.recent, rec)
	if len(d.recent) > recentSpecs {
		d.recent = d.recent[1:]
	}
	d.mu.Unlock()
	return nil
}

// hit resubmits the spec completed back completions ago (0 = the latest,
// modulo the ones kept); the service must deduplicate it and serve the
// bytes of its first read.
func (d *traffic) hit(ctx context.Context, back int, cs *clientStats) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	d.mu.Lock()
	if len(d.recent) == 0 {
		d.mu.Unlock()
		return errors.New("no completed spec to resubmit")
	}
	rec := d.recent[len(d.recent)-1-back%len(d.recent)]
	d.mu.Unlock()
	op := d.nextOp()
	root := d.tr.begin("client.hit", op, -1)
	defer d.tr.end(root)
	t := time.Now()
	sp := d.tr.begin("http.submit", op, root)
	resp, err := d.s.client.Submit(ctx, service.JobRequest{
		GraphID: d.base, Problem: rec.problem, Plan: greedy.ResolvePlan(greedy.WithSeed(rec.seed)),
	})
	d.tr.end(sp)
	cs.submits++
	if err != nil {
		return err
	}
	if resp.Deduped {
		cs.deduped++
	}
	if resp.State != service.StateDone {
		if _, err := d.wait(ctx, resp.ID, op, root, cs); err != nil {
			return err
		}
	}
	body, _, _, err := d.result(ctx, resp.ID, op, root)
	if err != nil {
		return err
	}
	if d.measure {
		cs.hitMS = append(cs.hitMS, ms(time.Since(t)))
	}
	if string(body) != string(rec.body) {
		return fmt.Errorf("dedup hit on %s seed %d served different bytes", rec.problem, rec.seed)
	}
	return nil
}

// patch PATCHes the newest version with the next batch, then runs a
// dynamic job of problem on the new version and fetches its result.
func (d *traffic) patch(ctx context.Context, problem string, cs *clientStats) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	batch := d.churn.draw(d.batch)
	req := service.PatchRequest{Updates: make([]service.PatchUpdate, len(batch))}
	for i, up := range batch {
		op := "add"
		if up.Op == greedy.OpDel {
			op = "del"
		}
		req.Updates[i] = service.PatchUpdate{Op: op, U: up.U, V: up.V}
	}
	op := d.nextOp()
	root := d.tr.begin("client.patch", op, -1)
	defer d.tr.end(root)
	t := time.Now()
	sp := d.tr.begin("http.patch", op, root)
	pv, err := d.s.client.Patch(ctx, d.newest, req)
	d.tr.end(sp)
	ack := time.Since(t)
	if err != nil {
		return err
	}
	d.churn.commit(batch)
	d.newest = pv.ID
	entry := chainEntry{batch: batch, version: pv.ID, m: pv.M, problem: problem, measured: d.measure}
	defer func() {
		d.mu.Lock()
		d.chain = append(d.chain, entry)
		d.mu.Unlock()
	}()

	sp = d.tr.begin("http.submit", op, root)
	resp, err := d.s.client.Submit(ctx, service.JobRequest{
		GraphID: pv.ID, Problem: problem,
		Plan: greedy.ResolvePlan(greedy.WithSeed(mix(d.seed, streamDynamic)), greedy.WithDynamic()),
	})
	d.tr.end(sp)
	if err != nil {
		return err
	}
	if _, err := d.wait(ctx, resp.ID, op, root, cs); err != nil {
		return err
	}
	cs.jobs++
	_, p, _, err := d.result(ctx, resp.ID, op, root)
	if err != nil {
		return err
	}
	entry.sum = p.Checksum
	if d.measure {
		cs.patchMS = append(cs.patchMS, ms(time.Since(t)))
		cs.ackPMS = append(cs.ackPMS, ms(ack))
		cs.dynJobs++
		if p.Repaired {
			cs.repaired++
		}
	}
	return nil
}

// do counts one measured operation.
func (d *traffic) do(cs *clientStats, err error) {
	d.res.op(err)
	cs.ops++
}

// boot starts a server, generates the workload graph on it and runs one
// operation of each kind as a warm-up.
func boot(ctx context.Context, cfg config, spec service.GenSpec, local *greedy.Graph, traced bool, res *results, tr *tracer) (*traffic, error) {
	s, err := startServer(cfg.dir, traced, graphBytes(spec.N, spec.M))
	if err != nil {
		return nil, err
	}
	info, err := s.client.Generate(ctx, spec)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("generating the workload graph: %w", err)
	}
	d := &traffic{
		s: s, seed: cfg.seed, base: info.ID, newest: info.ID,
		churn: newChurn(local, local.EdgeList(), mix(cfg.seed, streamChurn)),
		batch: serveBatch, res: res, tr: tr,
	}
	warm := &clientStats{}
	for p, name := range problems {
		err = errors.Join(err, d.exec(ctx, name, mix(cfg.seed, streamWarmup+uint64(p)), warm))
	}
	err = errors.Join(err, d.hit(ctx, 0, warm), d.patch(ctx, "mis", warm), d.patch(ctx, "mm", warm))
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// generate builds the graph a generation spec denotes, as the service
// does.
func generate(spec service.GenSpec) *greedy.Graph {
	if spec.Generator == "rmat" {
		logN := 0
		for 1<<logN < spec.N {
			logN++
		}
		return greedy.RMatGraph(logN, spec.M, spec.Seed)
	}
	return greedy.RandomGraph(spec.N, spec.M, spec.Seed)
}

// window runs the two closed-loop clients until the deadline. Client 1
// alternates a unique job, round-robin over the problems with a fresh
// seed each, with a dedup resubmission of a recently completed spec.
// Client 2 PATCHes the newest version and runs a dynamic MIS or MM job
// on it. Each client finishes the cycle it is in.
func (d *traffic) window(ctx context.Context, dur time.Duration) (c1, c2 *clientStats, elapsed time.Duration) {
	c1, c2 = &clientStats{}, &clientStats{}
	d.measure = true
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			d.do(c1, d.exec(ctx, problems[i%len(problems)], mix(d.seed, streamUnique+uint64(i)), c1))
			d.do(c1, d.hit(ctx, i, c1))
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; time.Now().Before(deadline); j++ {
			d.do(c2, d.patch(ctx, problems[j%2], c2))
		}
	}()
	wg.Wait()
	elapsed = time.Since(start)
	d.measure = false
	return c1, c2, elapsed
}

// verify checks the measured answers. Every exec is checked against a
// direct Solver call on the base graph, split over two workers. The
// PATCH chain is replayed on local MIS and MM sessions: every dynamic
// answer must match the local session's, and every verifyEvery-th
// version, and the last, is also solved from scratch.
func (d *traffic) verify(ctx context.Context, g *greedy.Graph, execs []execRecord) {
	el := g.EdgeList()
	sys := greedy.HittingSystemFromEdges(el)
	var wg sync.WaitGroup
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			solver := greedy.NewSolver()
			for i := w; i < len(execs); i += 2 {
				rec := execs[i]
				opts := []greedy.Option{greedy.WithSeed(rec.seed)}
				if rec.problem != "sf" {
					// The prefix answer equals the sequential one bit for
					// bit; only the spanning forest must repeat the plan.
					opts = append(opts, greedy.WithAlgorithm(greedy.AlgoSequential))
				}
				want, err := checksum(ctx, solver, rec.problem, g, el, sys, opts...)
				if err == nil && want != rec.sum {
					err = fmt.Errorf("%s seed %d: service checksum %s, direct solve %s", rec.problem, rec.seed, rec.sum, want)
				}
				d.res.op(err)
			}
		}(w)
	}
	d.res.op(d.verifyChain(ctx, g))
	wg.Wait()
}

// verifyEvery spaces the from-scratch solves of the replayed chain.
const verifyEvery = 16

func (d *traffic) verifyChain(ctx context.Context, g *greedy.Graph) error {
	solver := greedy.NewSolver()
	dyn := []greedy.Option{greedy.WithSeed(mix(d.seed, streamDynamic)), greedy.WithDynamic()}
	mis, err := solver.MISDynamic(ctx, g, dyn[0])
	if err != nil {
		return err
	}
	mm, err := solver.MMDynamic(ctx, g, dyn[0])
	if err != nil {
		return err
	}
	for k, e := range d.chain {
		if _, err := mis.Apply(ctx, e.batch); err != nil {
			return fmt.Errorf("mirror rejected a batch the service accepted: %w", err)
		}
		if _, err := mm.Apply(ctx, e.batch); err != nil {
			return fmt.Errorf("mirror rejected a batch the service accepted: %w", err)
		}
		if !e.measured || e.sum == "" {
			continue
		}
		var local string
		if e.problem == "mis" {
			local = membershipChecksum(mis.Result().InSet)
		} else {
			local = pairsChecksum(mm.Pairs())
		}
		if k%verifyEvery == 0 || k == len(d.chain)-1 {
			gk := mis.Graph()
			want, err := checksum(ctx, solver, e.problem, gk, gk.EdgeList(), nil, dyn...)
			if err != nil {
				return err
			}
			if want != local {
				return fmt.Errorf("local %s session on %s differs from a from-scratch solve", e.problem, e.version)
			}
		}
		err := error(nil)
		switch {
		case mis.NumEdges() != e.m:
			err = fmt.Errorf("version %s has %d edges, the mirror %d", e.version, e.m, mis.NumEdges())
		case local != e.sum:
			err = fmt.Errorf("dynamic %s on %s: service checksum %s, local %s", e.problem, e.version, e.sum, local)
		}
		d.res.op(err)
	}
	return nil
}

// checksum solves problem directly and returns the checksum the service
// reports for it.
func checksum(ctx context.Context, s *greedy.Solver, problem string, g *greedy.Graph, el greedy.EdgeList, sys *greedy.System, opts ...greedy.Option) (string, error) {
	switch problem {
	case "mis":
		r, err := s.MIS(ctx, g, opts...)
		if err != nil {
			return "", err
		}
		return membershipChecksum(r.InSet), nil
	case "mm":
		r, err := s.MM(ctx, el, opts...)
		if err != nil {
			return "", err
		}
		if greedy.ResolvePlan(opts...).Dynamic {
			return pairsChecksum(r.Pairs), nil
		}
		return membershipChecksum(r.InMatching), nil
	case "sf":
		r, err := s.SF(ctx, el, opts...)
		if err != nil {
			return "", err
		}
		return membershipChecksum(r.InForest), nil
	case "coloring":
		r, err := s.Coloring(ctx, g, opts...)
		if err != nil {
			return "", err
		}
		return colorsChecksum(r.Colors), nil
	default:
		r, err := s.HittingSet(ctx, sys, opts...)
		if err != nil {
			return "", err
		}
		return membershipChecksum(r.InSet), nil
	}
}

// serverMark is a reading of the service counters the per-layer
// metrics difference.
type serverMark struct {
	executed, walAppends, rejected, demotions, coldLoads int64
}

func (d *traffic) mark() serverMark {
	snap := d.s.svc.Snapshot()
	return serverMark{
		executed:   snap.Jobs.Executed,
		walAppends: snap.Persist.WALAppends,
		rejected:   snap.Jobs.AdmissionRejected + snap.Registry.IngestPausedRejections,
		demotions:  snap.Persist.Demotions,
		coldLoads:  snap.Persist.ColdLoads,
	}
}

// addServiceLayers reports the service and persistence figures of the
// operations between two marks.
func addServiceLayers(res *results, c1, c2 *clientStats, from, to serverMark) {
	res.add("service.ack_ms", "ms", median(c1.ackMS), len(c1.ackMS))
	res.add("service.queue_ms", "ms", median(c1.queueMS), len(c1.queueMS))
	res.add("service.run_ms", "ms", median(c1.runMS), len(c1.runMS))
	res.add("service.result_ms", "ms", median(c1.resultMS), len(c1.resultMS))
	res.add("service.payload_kb", "KiB", float64(c1.payloadBytes)/1024/float64(max(len(c1.execMS), 1)), len(c1.execMS))
	jobs := c1.jobs + c2.jobs
	res.add("service.polls_per_job", "1", float64(c1.polls+c2.polls)/float64(max(jobs, 1)), jobs)
	res.add("service.patch_ms", "ms", median(c2.ackPMS), len(c2.ackPMS))
	res.add("service.dedup_frac", "1", float64(c1.deduped)/float64(max(c1.submits, 1)), c1.submits)
	res.add("service.repaired_frac", "1", float64(c2.repaired)/float64(max(c2.dynJobs, 1)), c2.dynJobs)
	res.add("service.rejected", "count", float64(to.rejected-from.rejected), 1)
	res.add("registry.demotions", "count", float64(to.demotions-from.demotions), 1)
	res.add("registry.cold_loads", "count", float64(to.coldLoads-from.coldLoads), 1)
	executed := to.executed - from.executed
	res.add("persist.wal_appends_per_exec", "1", float64(to.walAppends-from.walAppends)/float64(max(executed, 1)), int(executed))
}

// runServe measures serve-mixed. The untraced run reports the client
// latencies; the traced run splits the window between an untraced and a
// traced service (their exec medians give the tracing overhead) and
// reports the per-layer figures of the traced half, then measures the
// library layers on the same graph.
func runServe(cfg config, res *results, tr *tracer) error {
	ctx := context.Background()
	n := 1 << cfg.logN
	spec := service.GenSpec{Generator: "random", N: n, M: degree * n, Seed: mix(cfg.seed, streamGraph)}
	g := generate(spec)
	var d *traffic
	var setupS []float64
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			d.s.close()
			d = nil
		}
		settle()
		t := time.Now()
		var err error
		if d, err = boot(ctx, cfg, spec, g, false, res, newTracer(false)); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}

	window := cfg.window
	if cfg.traced {
		window /= 2
	}
	settle()
	peak := startHeapSampler()
	c1, c2, elapsed := d.window(ctx, window)
	heapMB := peak.finish()
	d.verify(ctx, g, c1.execs)
	d.s.close()

	if !cfg.traced {
		ops := c1.ops + c2.ops
		res.add("setup_s", "s", median(setupS), len(setupS))
		res.add("solve_ms", "ms", median(c1.execMS), len(c1.execMS))
		res.add("repair_ms", "ms", median(c2.patchMS), len(c2.patchMS))
		res.add("ops_per_s", "1/s", float64(ops)/elapsed.Seconds(), ops)
		res.add("heap_peak_mb", "MiB", heapMB, 1)
		res.note("hit_ms", "ms", median(c1.hitMS), len(c1.hitMS))
		res.note("exec_p99_ms", "ms", quantile(c1.execMS, 0.99), len(c1.execMS))
		res.note("patch_p99_ms", "ms", quantile(c2.patchMS, 0.99), len(c2.patchMS))
		return nil
	}

	untracedExec := median(c1.execMS)
	td, err := boot(ctx, cfg, spec, g, true, res, tr)
	if err != nil {
		return err
	}
	settle()
	from := td.mark()
	before := readRuntime()
	t1, t2, _ := td.window(ctx, window)
	after := readRuntime()
	to := td.mark()
	td.verify(ctx, g, t1.execs)
	td.s.close()
	addServiceLayers(res, t1, t2, from, to)
	addRuntime(res, before, after, t1.ops+t2.ops)
	res.add("trace.overhead_frac", "1", median(t1.execMS)/untracedExec-1, len(t1.execMS))

	lib, err := newLibrary(ctx, spec, cfg.seed, serveBatch)
	if err != nil {
		return err
	}
	res.add("graph.build_s", "s", lib.buildS, 1)
	st := lib.loop(ctx, res, tr, time.Now(), 16, true)
	res.op(lib.checkSessions(ctx))
	lib.addLibraryLayers(ctx, res, tr, st)
	return persistLayers(cfg.dir, g, res, tr)
}

// serviceProbe runs a fixed sequence of service operations on the
// workload graph g, which spec generates — a unique job and a dedup
// resubmission per problem, then four PATCHes with dynamic jobs — and
// reports the service layers.
func serviceProbe(ctx context.Context, cfg config, spec service.GenSpec, g *greedy.Graph, res *results, tr *tracer) error {
	d, err := boot(ctx, cfg, spec, g, true, res, tr)
	if err != nil {
		return err
	}
	defer d.s.close()
	c1, c2 := &clientStats{}, &clientStats{}
	from := d.mark()
	d.measure = true
	for p, name := range problems {
		d.do(c1, d.exec(ctx, name, mix(cfg.seed, streamUnique+uint64(p)), c1))
		d.do(c1, d.hit(ctx, 0, c1))
	}
	for j := 0; j < 4; j++ {
		d.do(c2, d.patch(ctx, problems[j%2], c2))
	}
	d.measure = false
	to := d.mark()
	d.verify(ctx, g, c1.execs)
	addServiceLayers(res, c1, c2, from, to)
	return nil
}
