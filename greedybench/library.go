package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro"
	"repro/internal/service"
)

// problems are the five greedy problems, in pass order.
var problems = [...]string{"mis", "mm", "sf", "coloring", "hittingset"}

const (
	passBatches  = 4 // repair batches after each pass
	exactBatches = 8 // leading batches behind the exact per-batch counters
	seqReps      = 3 // timed repetitions of each sequential scan
	// opsPerCycle counts the timed calls of one pass and its batches:
	// one per problem and two Applies per batch.
	opsPerCycle = len(problems) + 2*passBatches
)

// library is one workload graph with everything the timed calls need:
// the derived inputs, the sequential reference answers, two dynamic
// sessions and one reused Solver.
type library struct {
	g      *greedy.Graph
	el     greedy.EdgeList
	sys    *greedy.System
	solver *greedy.Solver
	opts   []greedy.Option // the default prefix plan
	ref    refs
	mis    *greedy.MISSession
	mm     *greedy.MMSession
	churn  *churn
	batch  int // updates per repair batch
	buildS float64
}

// refs are the sequential answers every timed result is checked against.
type refs struct {
	mis, mm, hs []bool
	colors      []int32
	sfSize      int
}

// newLibrary generates the graph spec denotes, builds the derived
// inputs, computes the sequential references, opens the sessions and
// runs one warm-up pass and batch.
func newLibrary(ctx context.Context, spec service.GenSpec, seed uint64, batch int) (*library, error) {
	t := time.Now()
	g := generate(spec)
	l := &library{
		g:      g,
		buildS: time.Since(t).Seconds(),
		solver: greedy.NewSolver(),
		opts:   []greedy.Option{greedy.WithSeed(mix(seed, streamOrder))},
		batch:  batch,
	}
	l.el = g.EdgeList()
	l.sys = greedy.HittingSystemFromEdges(l.el)
	seq := append(l.opts[:len(l.opts):len(l.opts)], greedy.WithAlgorithm(greedy.AlgoSequential))
	for p := range problems {
		out, _, err := l.solve(ctx, p, seq)
		if err != nil {
			return nil, fmt.Errorf("sequential %s: %w", problems[p], err)
		}
		switch r := out.(type) {
		case *greedy.MISResult:
			l.ref.mis = r.InSet
		case *greedy.MMResult:
			l.ref.mm = r.InMatching
		case *greedy.SFResult:
			l.ref.sfSize = r.Size()
		case *greedy.ColoringResult:
			l.ref.colors = r.Colors
		case *greedy.HittingSetResult:
			l.ref.hs = r.InSet
		}
	}
	var err error
	if l.mis, err = l.solver.MISDynamic(ctx, g, l.opts...); err != nil {
		return nil, err
	}
	if l.mm, err = l.solver.MMDynamic(ctx, g, l.opts...); err != nil {
		return nil, err
	}
	l.churn = newChurn(g, l.el, mix(seed, streamChurn))
	for p := range problems {
		out, _, err := l.solve(ctx, p, l.opts)
		if err == nil {
			err = l.verify(p, out)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", problems[p], err)
		}
	}
	warm := newResults()
	l.repairBatch(ctx, warm, newTracer(false), &loopStats{}, 0)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up repair batch: %s", warm.failures[0])
	}
	return l, nil
}

// solve runs problem p once on the reused solver.
func (l *library) solve(ctx context.Context, p int, opts []greedy.Option) (any, greedy.Stats, error) {
	switch problems[p] {
	case "mis":
		r, err := l.solver.MIS(ctx, l.g, opts...)
		if err != nil {
			return nil, greedy.Stats{}, err
		}
		return r, r.Stats, nil
	case "mm":
		r, err := l.solver.MM(ctx, l.el, opts...)
		if err != nil {
			return nil, greedy.Stats{}, err
		}
		return r, r.Stats, nil
	case "sf":
		r, err := l.solver.SF(ctx, l.el, opts...)
		if err != nil {
			return nil, greedy.Stats{}, err
		}
		return r, r.Stats, nil
	case "coloring":
		r, err := l.solver.Coloring(ctx, l.g, opts...)
		if err != nil {
			return nil, greedy.Stats{}, err
		}
		return r, r.Stats, nil
	default:
		r, err := l.solver.HittingSet(ctx, l.sys, opts...)
		if err != nil {
			return nil, greedy.Stats{}, err
		}
		return r, r.Stats, nil
	}
}

// items is the number of iterates problem p decides.
func (l *library) items(p int) int {
	switch problems[p] {
	case "mm", "sf":
		return l.el.NumEdges()
	default:
		return l.g.NumVertices()
	}
}

// verify checks a prefix result against the sequential reference: MIS,
// MM, coloring and hitting set bit for bit, the spanning forest as a
// valid forest of the sequential one's size.
func (l *library) verify(p int, out any) error {
	same := true
	switch r := out.(type) {
	case *greedy.MISResult:
		same = equal(r.InSet, l.ref.mis)
	case *greedy.MMResult:
		same = equal(r.InMatching, l.ref.mm)
	case *greedy.ColoringResult:
		same = equal(r.Colors, l.ref.colors)
	case *greedy.HittingSetResult:
		same = equal(r.InSet, l.ref.hs)
	case *greedy.SFResult:
		return forestError(l.el, r.InForest, l.ref.sfSize)
	}
	if !same {
		return fmt.Errorf("%s: prefix result differs from the sequential one", problems[p])
	}
	return nil
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forestError checks that the selected edges form a forest (no edge
// closes a cycle) with want edges.
func forestError(el greedy.EdgeList, in []bool, want int) error {
	parent := make([]int32, el.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	size := 0
	for i, sel := range in {
		if !sel {
			continue
		}
		e := el.Edges[i]
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			return fmt.Errorf("sf: edge {%d,%d} closes a cycle", e.U, e.V)
		}
		parent[ru] = rv
		size++
	}
	if size != want {
		return fmt.Errorf("sf: forest has %d edges, the sequential one %d", size, want)
	}
	return nil
}

// checkSessions compares both sessions with a from-scratch solve of
// their current graph.
func (l *library) checkSessions(ctx context.Context) error {
	r, err := l.solver.MIS(ctx, l.mis.Graph(), l.opts...)
	if err != nil {
		return err
	}
	if !equal(r.InSet, l.mis.Result().InSet) {
		return fmt.Errorf("mis session differs from a from-scratch solve")
	}
	m, err := l.solver.MM(ctx, l.mm.Graph().EdgeList(), append(l.opts[:len(l.opts):len(l.opts)], greedy.WithDynamic())...)
	if err != nil {
		return err
	}
	if pairsChecksum(m.Pairs) != pairsChecksum(l.mm.Pairs()) {
		return fmt.Errorf("mm session differs from a from-scratch solve")
	}
	return nil
}

// hasReset reports whether a problem's engine rounds have a reservation
// reset phase; for the others the phase always reads zero.
func hasReset(problem string) bool { return problem == "mm" || problem == "sf" }

// phaseAcc sums one call's engine phase times from the round observer.
type phaseAcc struct{ check, commit, reset, slide int64 }

func (a *phaseAcc) observe(ri greedy.RoundInfo) {
	a.check += ri.CheckNS
	a.commit += ri.CommitNS
	a.reset += ri.ResetNS
	a.slide += ri.SlideNS
}

// loopStats is what the pass-and-batch loop measured.
type loopStats struct {
	passMS       []float64 // unprofiled passes: the five calls summed
	tracedPassMS []float64 // profiled passes
	callMS       [len(problems)][]float64
	phaseMS      [len(problems)][4][]float64 // check, commit, reset, slide
	stats        [len(problems)]greedy.Stats
	misApply     []float64
	mmApply      []float64
	repairMS     []float64
	misCost      []greedy.RepairCost
	mmCost       []greedy.RepairCost
	cycleMS      []float64 // each pass and its batches: the timed calls summed
	ops          int
	heap         heapPeak // sampled as each timed call returns
}

// loop runs passes, each followed by passBatches repair batches, until
// the deadline and for at least minPasses passes.
// With profile set, every second pass runs with the engine phase
// profile and a round observer. Every result is verified; failures are
// counted in res.
func (l *library) loop(ctx context.Context, res *results, tr *tracer, deadline time.Time, minPasses int, profile bool) *loopStats {
	st := &loopStats{}
	var acc phaseAcc
	profiled := append(l.opts[:len(l.opts):len(l.opts)], greedy.WithPhaseProfile(), greedy.WithRoundObserver(acc.observe))
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		traced := profile && pass%2 == 1
		opts := l.opts
		if traced {
			opts = profiled
		}
		total := 0.0
		for p := range problems {
			acc = phaseAcc{}
			settle()
			sp := tr.begin("solver."+problems[p], int64(pass), -1)
			t := time.Now()
			out, stats, err := l.solve(ctx, p, opts)
			took := time.Since(t)
			tr.end(sp)
			st.heap.sample()
			if err == nil {
				err = l.verify(p, out)
			}
			if err == nil && pass > 0 && stats != st.stats[p] {
				err = fmt.Errorf("%s: stats %+v differ from the first pass's %+v", problems[p], stats, st.stats[p])
			}
			res.op(err)
			st.ops++
			st.stats[p] = stats
			d := ms(took)
			total += d
			if traced {
				for i, v := range [4]int64{acc.check, acc.commit, acc.reset, acc.slide} {
					st.phaseMS[p][i] = append(st.phaseMS[p][i], float64(v)/1e6)
				}
			} else {
				st.callMS[p] = append(st.callMS[p], d)
			}
		}
		if traced {
			st.tracedPassMS = append(st.tracedPassMS, total)
		} else {
			st.passMS = append(st.passMS, total)
		}
		cycle := total
		for b := 0; b < passBatches; b++ {
			cycle += l.repairBatch(ctx, res, tr, st, int64(pass))
		}
		st.cycleMS = append(st.cycleMS, cycle)
	}
	return st
}

// repairBatch applies the next update batch to both sessions and returns
// the two Apply times summed, in milliseconds.
func (l *library) repairBatch(ctx context.Context, res *results, tr *tracer, st *loopStats, op int64) float64 {
	batch := l.churn.draw(l.batch)
	settle()
	sp := tr.begin("session.mis.apply", op, -1)
	t := time.Now()
	misRep, err1 := l.mis.Apply(ctx, batch)
	d1 := ms(time.Since(t))
	tr.end(sp)
	settle()
	sp = tr.begin("session.mm.apply", op, -1)
	t = time.Now()
	mmRep, err2 := l.mm.Apply(ctx, batch)
	d2 := ms(time.Since(t))
	tr.end(sp)
	st.heap.sample()
	res.op(err1)
	res.op(err2)
	st.ops += 2
	if err1 != nil || err2 != nil {
		return d1 + d2
	}
	l.churn.commit(batch)
	st.misApply = append(st.misApply, d1)
	st.mmApply = append(st.mmApply, d2)
	st.repairMS = append(st.repairMS, d1+d2)
	st.misCost = append(st.misCost, misRep.MIS)
	st.mmCost = append(st.mmCost, mmRep.MM)
	return d1 + d2
}

// addLibraryLayers reports the per-layer figures of a profiled loop —
// engine phases and counters, prefix times, repair batches — and of the
// direct measurements that follow it: a pass at one processor, the
// sequential scans and the order derivation.
func (l *library) addLibraryLayers(ctx context.Context, res *results, tr *tracer, st *loopStats) {
	phases := [4]string{"check_ms", "commit_ms", "reset_ms", "slide_ms"}
	for p, name := range problems {
		for i, ph := range phases {
			if ph == "reset_ms" && !hasReset(name) {
				continue
			}
			res.add("engine."+name+"."+ph, "ms", median(st.phaseMS[p][i]), len(st.phaseMS[p][i]))
		}
		s := st.stats[p]
		res.add("engine."+name+".rounds", "count", float64(s.Rounds), 1)
		res.add("engine."+name+".attempts", "count", float64(s.Attempts), 1)
		res.add("engine."+name+".inspections", "count", float64(s.EdgeInspections), 1)
		res.add("engine."+name+".useful_frac", "1", float64(l.items(p))/float64(max(s.Attempts, 1)), 1)
		res.add(name+".prefix_ms", "ms", median(st.callMS[p]), len(st.callMS[p]))
	}

	// One pass at a single processor: the parallel speedup and the
	// prefix-to-sequential ratio at one core.
	runtime.GOMAXPROCS(1)
	one := make([]float64, len(problems))
	oneTotal := 0.0
	for p := range problems {
		settle()
		sp := tr.begin("solver.1proc."+problems[p], 0, -1)
		t := time.Now()
		out, _, err := l.solve(ctx, p, l.opts)
		one[p] = ms(time.Since(t))
		tr.end(sp)
		if err == nil {
			err = l.verify(p, out)
		}
		res.op(err)
		oneTotal += one[p]
	}
	runtime.GOMAXPROCS(procs)
	res.add("parallel.speedup", "x", oneTotal/median(st.passMS), 1)

	seq := append(l.opts[:len(l.opts):len(l.opts)], greedy.WithAlgorithm(greedy.AlgoSequential))
	for p, name := range problems {
		var times []float64
		for i := 0; i < seqReps; i++ {
			settle()
			sp := tr.begin("solver.seq."+name, int64(i), -1)
			t := time.Now()
			_, _, err := l.solve(ctx, p, seq)
			times = append(times, ms(time.Since(t)))
			tr.end(sp)
			res.op(err)
		}
		res.add(name+".seq_ms", "ms", median(times), len(times))
		res.add(name+".vs_seq", "x", one[p]/median(times), 1)
	}

	var orderMS []float64
	for i := 0; i < seqReps; i++ {
		settle()
		sp := tr.begin("greedy.order", int64(i), -1)
		t := time.Now()
		a := greedy.NewRandomOrder(l.g.NumVertices(), mix(uint64(i), streamTimed))
		b := greedy.NewRandomOrder(l.el.NumEdges(), mix(uint64(i), streamTimed))
		orderMS = append(orderMS, ms(time.Since(t)))
		tr.end(sp)
		if a.Len() != l.g.NumVertices() || b.Len() != l.el.NumEdges() {
			res.op(fmt.Errorf("NewRandomOrder returned a wrong length"))
		}
	}
	res.add("greedy.order_ms", "ms", median(orderMS), len(orderMS))

	var misVisited, misFlipped, mmVisited, mmFlipped float64
	k := min(exactBatches, len(st.misCost))
	for i := 0; i < k; i++ {
		misVisited += float64(st.misCost[i].Visited)
		misFlipped += float64(st.misCost[i].Flipped)
		mmVisited += float64(st.mmCost[i].Visited)
		mmFlipped += float64(st.mmCost[i].Flipped)
	}
	div := float64(max(k, 1))
	res.add("dynamic.mis.apply_ms", "ms", median(st.misApply), len(st.misApply))
	res.add("dynamic.mis.visited", "count", misVisited/div, k)
	res.add("dynamic.mis.flipped", "count", misFlipped/div, k)
	res.add("dynamic.mm.apply_ms", "ms", median(st.mmApply), len(st.mmApply))
	res.add("dynamic.mm.visited", "count", mmVisited/div, k)
	res.add("dynamic.mm.flipped", "count", mmFlipped/div, k)
}

// churn draws valid edge-update batches against a graph it mirrors
// cheaply: deletions pick original edges not yet deleted, insertions
// pick vertex pairs that are neither original edges nor already
// inserted. The batches are a function of the seed and their index.
// Unlike internal/bench's ChurnMutator it keeps no map of every edge,
// which at the library workloads' size would add about a second and
// a hundred MiB of benchmark state to setup_s and heap_peak_mb.
type churn struct {
	g        *greedy.Graph
	edges    []greedy.Edge
	rng      *rand.Rand
	deleted  map[greedy.Edge]bool
	inserted map[greedy.Edge]bool
}

func newChurn(g *greedy.Graph, el greedy.EdgeList, seed uint64) *churn {
	return &churn{
		g:        g,
		edges:    el.Edges,
		rng:      rand.New(rand.NewPCG(seed, 0)),
		deleted:  make(map[greedy.Edge]bool),
		inserted: make(map[greedy.Edge]bool),
	}
}

// draw returns the next batch of k updates, alternating deletions and
// insertions, without committing it. Once half the original edges are
// deleted it draws insertions only, so a long run cannot exhaust them.
func (c *churn) draw(k int) []greedy.DynamicUpdate {
	batch := make([]greedy.DynamicUpdate, 0, k)
	inBatch := make(map[greedy.Edge]bool, k)
	n := c.g.NumVertices()
	for len(batch) < k {
		if len(batch)%2 == 0 && 2*len(c.deleted) < len(c.edges) {
			e := c.edges[c.rng.IntN(len(c.edges))]
			if c.deleted[e] || inBatch[e] {
				continue
			}
			inBatch[e] = true
			batch = append(batch, greedy.DynamicUpdate{Op: greedy.OpDel, U: e.U, V: e.V})
			continue
		}
		u, v := greedy.Vertex(c.rng.IntN(n)), greedy.Vertex(c.rng.IntN(n))
		if u == v {
			continue
		}
		e := greedy.Edge{U: min(u, v), V: max(u, v)}
		if inBatch[e] || c.inserted[e] || c.g.HasEdge(e.U, e.V) {
			continue
		}
		inBatch[e] = true
		batch = append(batch, greedy.DynamicUpdate{Op: greedy.OpAdd, U: e.U, V: e.V})
	}
	return batch
}

// commit records a batch the graph's owner accepted.
func (c *churn) commit(batch []greedy.DynamicUpdate) {
	for _, up := range batch {
		e := greedy.Edge{U: min(up.U, up.V), V: max(up.U, up.V)}
		if up.Op == greedy.OpDel {
			c.deleted[e] = true
		} else {
			c.inserted[e] = true
		}
	}
}
