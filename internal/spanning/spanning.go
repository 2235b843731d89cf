// Package spanning implements greedy spanning forest, the extension the
// paper's conclusion proposes ("we believe that our approach can be
// applied to sequential greedy algorithms for other problems (e.g.
// spanning forest)"). The sequential algorithm scans edges in a random
// priority order and keeps every edge that joins two different
// components; the parallel version runs the same loop speculatively on
// prefixes with deterministic reservations over component roots, and
// returns exactly the sequential forest for any prefix size and
// schedule.
package spanning

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/unionfind"
)

// Stats reuses the core counters (Rounds, Attempts, EdgeInspections,
// PrefixSize) with the same conventions as MIS/MM.
type Stats = core.Stats

// Result is the outcome of a spanning forest computation.
type Result struct {
	// InForest[e] reports whether edge e is a forest (tree) edge.
	InForest []bool
	// Edges lists the forest edges in increasing edge-id order.
	Edges []graph.Edge
	// Stats are the run's cost counters.
	Stats Stats
}

// Size returns the number of forest edges.
func (r *Result) Size() int { return len(r.Edges) }

// Equal reports whether two results select the same edge set.
func (r *Result) Equal(other *Result) bool {
	if len(r.InForest) != len(other.InForest) {
		return false
	}
	for i := range r.InForest {
		if r.InForest[i] != other.InForest[i] {
			return false
		}
	}
	return true
}

// newResult builds the result around in, the per-edge forest bits,
// which it takes over.
func newResult(el graph.EdgeList, in []bool, stats Stats) *Result {
	ids := engine.Trues(in)
	edges := make([]graph.Edge, len(ids))
	for i, id := range ids {
		edges[i] = el.Edges[id]
	}
	return &Result{InForest: in, Edges: edges, Stats: stats}
}

// SequentialSF computes the greedy spanning forest of el under ord: it
// scans edges in priority order and keeps every edge that joins two
// different components; the kept edges form the lexicographically-first
// spanning forest. It is the engine's sequential scan over the adapter
// PrefixSF runs, on the same rank-gathered edges and the same pooled
// concurrent union-find; it needs no reservations.
//
// Stats: Rounds = Attempts = m, and EdgeInspections counts the two
// root finds per edge. ctx is checked every 4,096 edges, and buffers
// come from opt.Workspace when set.
func SequentialSF(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	prob, _ := newSFProblem(el, ord, opt)
	stats, err := engine.Scan(ctx, len(prob.edges), prob)
	if err != nil {
		return nil, err
	}
	return newResult(el, prob.in, stats), nil
}

// Options configures the prefix spanning-forest algorithms: the
// engine's window, grain and telemetry knobs (see engine.Options;
// PrefixSize and PrefixFrac count edges), the rank-gathered edges and
// the pooled workspace. PrefixSF returns exactly the sequential forest
// for every window schedule, while PrefixSFRelaxed — deterministic per
// window schedule, like per fixed prefix — may select a different
// (equally valid) forest under an adaptive schedule than under a fixed
// window.
type Options struct {
	engine.Options
	// Edges, if non-nil, are the input's edges gathered into rank order
	// (see graph.EdgeList.GatherByRank: Edges[r] is the edge of rank r),
	// reused by PrefixSF, PrefixSFRelaxed and SequentialSF instead of
	// gathering them per run. Runs only read them. They must match the
	// edge list and order passed with these options.
	Edges []graph.Edge
	// Workspace, if non-nil, supplies pooled per-run buffers reused
	// across runs. nil means allocate fresh buffers.
	Workspace *Workspace
}

// PrefixSF computes the lexicographically-first spanning forest with
// prefix-based deterministic reservations. Each round, every active
// edge finds the current roots of its endpoints; an edge whose roots
// coincide is a cycle edge and resolves to out. Otherwise it bids for
// BOTH roots with a priority write-min and commits — linking the
// larger root under the smaller, which keeps the union forest acyclic —
// only if it holds both. Reserving both roots is what makes the result
// equal to the sequential forest: an earlier unresolved edge incident
// to either component always outbids a later one, so a later edge can
// never steal a union that would change an earlier edge's fate.
//
// ctx is checked once per round, so a cancelled context aborts within
// one round and returns ctx.Err(). Pooled buffers come from
// opt.Workspace when set.
//
// The round loop is the shared speculative-prefix engine
// (internal/engine); this function contributes the strict spanning
// forest problem: find roots and bid on both in the check phase, link
// when holding both reservations and release the held ones in the
// commit phase. The run is in rank space: it reads the edges in rank
// order (opt.Edges when set, gathered for this run otherwise), an
// edge's rank is its bid, and a linked edge sets its own forest bit, at
// its id order[r].
func PrefixSF(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	prob, ws := newSFProblem(el, ord, opt)
	prob.reserv = engine.Grow32(&ws.reserv, el.N)
	engine.Fill32(prob.reserv, maxRank)
	stats, err := engine.Run(ctx, len(prob.edges), prob, opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return newResult(el, prob.in, stats), nil
}

// newSFProblem is the set-up the strict, relaxed and sequential forests
// share: the workspace, the pooled union-find reset over el's vertices,
// the forest bits and the rank-gathered edges (opt.Edges when set,
// gathered into the workspace otherwise). The prefix runs add the
// reservations, and Run sizes their root snapshots (SizeWindow).
func newSFProblem(el graph.EdgeList, ord core.Order, opt Options) (*sfProblem, *Workspace) {
	m := el.NumEdges()
	if ord.Len() != m {
		panic("spanning: order size does not match edge list")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	edges := opt.Edges
	if edges == nil {
		edges = el.GatherByRank(&ws.edges, ord.Order)
	}
	return &sfProblem{
		edges:    edges,
		order:    ord.Order,
		dsu:      ws.freshDSU(el.N),
		in:       make([]bool, m),
		rootsBuf: &ws.roots,
	}, ws
}

// maxRank is the neutral reservation value: larger than any edge rank.
const maxRank = int32(1<<31 - 1)

// sfProblem is the engine adapter for the strict (sequential-
// equivalent) spanning forest, indexed by rank: edges[r] is the edge of
// rank r, and r is its bid. The reservation array is shared between
// concurrently running edges within a phase — bids race through the
// priority write-min, and commit-phase loads race with the holders'
// releases — so every access to it is atomic. An edge's forest bit is
// written only by its own Commit.
//
// The edges are only read: they may be a layout other runs share.
// Check writes the roots it found into the edge's window slot of roots,
// the snapshot Commit links, on the other side of the engine's
// fork-join barrier; a retried edge finds its roots from its endpoints
// again.
type sfProblem struct {
	edges    []graph.Edge
	order    []int32
	dsu      *unionfind.Concurrent
	in       []bool
	reserv   []int32
	roots    []graph.Edge
	rootsBuf *[]graph.Edge
}

// SizeWindow sizes the root snapshots to the largest window Run can
// attempt.
func (p *sfProblem) SizeWindow(bound int) {
	p.roots = engine.Grow(p.rootsBuf, bound)
}

// Check is the reserve phase: find roots, drop cycle edges, bid on both
// roots.
func (p *sfProblem) Check(act, outcome []int32, lo, hi int) int64 {
	var local int64
	for i := lo; i < hi; i++ {
		r := act[i]
		edge := p.edges[r]
		ru := p.dsu.Find(edge.U)
		rv := p.dsu.Find(edge.V)
		local += 2
		if ru == rv {
			outcome[i] = engine.Dropped
			continue
		}
		p.roots[i] = graph.Edge{U: ru, V: rv}
		parallel.WriteMin32(&p.reserv[ru], r)
		parallel.WriteMin32(&p.reserv[rv], r)
	}
	return local
}

// Commit links every edge holding both of its roots' reservations
// (larger root id under smaller, so parent ids strictly decrease along
// links and the structure stays a forest even across concurrent
// commits, which necessarily touch disjoint root pairs), and releases
// every reservation an edge holds, linked or not, so all slots are
// neutral for the next round.
func (p *sfProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		if outcome[i] != engine.Undecided {
			continue
		}
		r := act[i]
		ru, rv := p.roots[i].U, p.roots[i].V
		holdU := atomic.LoadInt32(&p.reserv[ru]) == r
		holdV := atomic.LoadInt32(&p.reserv[rv]) == r
		if holdU {
			atomic.StoreInt32(&p.reserv[ru], maxRank)
		}
		if holdV {
			atomic.StoreInt32(&p.reserv[rv], maxRank)
		}
		if holdU && holdV {
			p.link(ru, rv)
			p.in[p.order[r]] = true
			outcome[i] = engine.Committed
		}
	}
	return 0
}

// Decide is the sequential step: with every earlier edge final, edge r
// joins the forest exactly when its endpoints' roots differ.
func (p *sfProblem) Decide(r int32) int64 {
	edge := p.edges[r]
	ru := p.dsu.Find(edge.U)
	rv := p.dsu.Find(edge.V)
	if ru != rv {
		p.link(ru, rv)
		p.in[p.order[r]] = true
	}
	return 2
}

// link hangs the larger of two distinct roots under the smaller, so
// parent ids strictly decrease along links.
func (p *sfProblem) link(ru, rv int32) {
	if ru < rv {
		p.dsu.Link(rv, ru)
	} else {
		p.dsu.Link(ru, rv)
	}
}

// IsForest reports whether the selected edges contain no cycle.
func IsForest(el graph.EdgeList, inForest []bool) bool {
	dsu := unionfind.NewDSU(el.N)
	for e, in := range inForest {
		if in && !dsu.Union(el.Edges[e].U, el.Edges[e].V) {
			return false
		}
	}
	return true
}

// IsSpanning reports whether the selected edges connect everything the
// full edge set connects (same components).
func IsSpanning(el graph.EdgeList, inForest []bool) bool {
	full := unionfind.NewDSU(el.N)
	sel := unionfind.NewDSU(el.N)
	for e, edge := range el.Edges {
		full.Union(edge.U, edge.V)
		if inForest[e] {
			sel.Union(edge.U, edge.V)
		}
	}
	return full.Components() == sel.Components()
}
