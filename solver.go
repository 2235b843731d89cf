package greedy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/matching"
	"repro/internal/setcover"
	"repro/internal/spanning"
)

// Facade errors. The Solver methods return these, possibly wrapped with
// detail.
var (
	// ErrOrderSize reports that WithOrder supplied an order whose length
	// does not match the input size.
	ErrOrderSize = errors.New("greedy: WithOrder length does not match input size")
	// ErrLubyMatching reports that AlgoLuby was requested for a problem
	// other than MIS.
	ErrLubyMatching = errors.New("greedy: Luby's algorithm applies to MIS only")
	// ErrSpanningAlgorithm reports that an algorithm other than
	// AlgoPrefix or AlgoSequential was requested for spanning forest.
	ErrSpanningAlgorithm = errors.New("greedy: spanning forest supports algorithms prefix|sequential only")
	// ErrAdaptiveAlgorithm reports that WithAdaptivePrefix was combined
	// with an algorithm that has no prefix window to adapt.
	ErrAdaptiveAlgorithm = errors.New("greedy: adaptive prefix applies to the prefix algorithm only")
	// ErrDynamicUnsupported reports a configuration the dynamic
	// (churn-stable) priority scheme cannot express: spanning forest,
	// Luby (which regenerates priorities every round), or an explicit
	// order for dynamic matching (whose priorities are derived from the
	// edges themselves).
	ErrDynamicUnsupported = errors.New("greedy: dynamic priorities support MIS and MM under derived orders only")
	// ErrColoringAlgorithm reports that an algorithm other than
	// AlgoPrefix or AlgoSequential was requested for greedy coloring.
	ErrColoringAlgorithm = errors.New("greedy: coloring supports algorithms prefix|sequential only")
	// ErrHittingSetAlgorithm reports that an algorithm other than
	// AlgoPrefix or AlgoSequential was requested for greedy hitting set.
	ErrHittingSetAlgorithm = errors.New("greedy: hitting set supports algorithms prefix|sequential only")
)

// RoundInfo is a per-round progress report streamed to a
// WithRoundObserver callback by the round-synchronous algorithms
// (prefix-based, root-set, Luby): the round index, the window
// (PrefixSize), the iterates Attempted and Accepted, the
// EdgeInspections, the RetryTail and, under WithPhaseProfile, the
// per-phase wall times. It is the engine's round report; see
// engine.RoundStat for the fields.
type RoundInfo = engine.RoundStat

// WithRoundObserver streams per-round statistics to fn as the run
// progresses. fn is called between rounds on the solver's goroutine
// (never concurrently); it must not block for long, or it becomes the
// round loop's critical path. The observer is read-only: computing with
// or without one yields bit-identical results.
//
// Observers compose: repeating the option — across NewSolver defaults
// and per-call options — registers every function, and each round is
// reported to all of them in registration order (defaults first). This
// is what lets an embedding layer attach its own telemetry observer
// without clobbering a user-supplied one.
func WithRoundObserver(fn func(RoundInfo)) Option {
	return func(c *config) {
		if fn != nil {
			c.observers = append(c.observers, fn)
		}
	}
}

// Solver runs the paper's algorithms with a reusable Workspace: the
// per-run arrays (frontiers, status flags, reservations, priority
// orders, rank-space layouts) are allocated once, sized up lazily, and
// reused across runs on same-or-smaller inputs, so a long-lived Solver
// performs near-zero steady-state allocation per run beyond the
// returned Result. Results are bit-identical to fresh-memory runs.
//
// A Solver also caches three rank-space layouts, one entry per kind,
// keyed on (input, seed) under derived orders: the parent lists of a
// Graph (MIS and coloring), the layout of a System (hitting set) and
// the rank-gathered edges of an edge array (MM and SF, which share the
// entry). It reuses what it derived from an input, so an input must
// not be modified in place between calls on one Solver; a Graph and a
// System are immutable, and an EdgeList's Edges array must be treated
// as such.
//
// A Solver is NOT safe for concurrent use: it owns its workspace.
// Use one Solver per goroutine (the service layer keeps one per
// worker).
//
// Options passed to NewSolver become defaults for every run; options
// passed to a method call override them for that run.
type Solver struct {
	defaults []Option

	misWs   core.Workspace
	mmWs    matching.Workspace
	sfWs    spanning.Workspace
	colorWs coloring.Workspace
	hsWs    setcover.Workspace

	orders map[orderKey]Order

	parents layoutEntry[*Graph, core.Parents]
	hitting layoutEntry[*System, setcover.Layout]
	edges   layoutEntry[edgeArray, []Edge]
}

// layoutEntry caches one rank-space layout L of an input I — the
// parent lists the MIS and coloring checks scan, the hitting-set
// layout, or the rank-gathered edges MM and SF read — keyed on (input,
// seed): repeated runs build it once, and a miss rebuilds it into the
// same buffers. Each layout kind has one entry, so a pass over all
// problems keeps hitting. Pinning the input keeps its address from
// being reused by another input while the entry is keyed on it. The
// input must not change while it is pinned: a Solver reuses what it
// derived from it.
type layoutEntry[I comparable, L any] struct {
	in     I
	seed   uint64
	layout L
}

// edgeArray is an edge layout's input: the edge array, identified by
// the address of its first edge and its length. The address pins the
// array.
type edgeArray struct {
	first *Edge
	m     int
}

// orderKey identifies a derived priority order: NewRandomOrder is
// deterministic in (n, seed), so equal keys mean equal orders. Dynamic
// (hash-priority) edge orders are never cached under such a key — they
// depend on the edge endpoints themselves, which (m, seed) does not
// determine.
type orderKey struct {
	n    int
	seed uint64
}

// maxCachedOrders bounds the Solver's order cache. Orders are two
// []int32 of the input size; a handful covers the steady state of a
// serving worker cycling through a few (input, seed) pairs.
const maxCachedOrders = 8

// NewSolver returns a Solver whose runs apply defaults before
// per-call options.
func NewSolver(defaults ...Option) *Solver {
	return &Solver{defaults: defaults}
}

func (s *Solver) config(opts []Option) config {
	c := config{Plan: Plan{Seed: 1}}
	for _, o := range s.defaults {
		o(&c)
	}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// orderFor returns the priority order the configuration denotes for n
// items, serving derived orders from the Solver's cache (regenerating a
// random order is deterministic, so caching is purely an allocation
// win).
func (s *Solver) orderFor(c config, n int) (Order, error) {
	if c.ExplicitOrder {
		if c.order.Len() != n {
			return Order{}, fmt.Errorf("%w: order has %d items, input has %d", ErrOrderSize, c.order.Len(), n)
		}
		return c.order, nil
	}
	key := orderKey{n: n, seed: c.Seed}
	if ord, ok := s.orders[key]; ok {
		return ord, nil
	}
	ord := core.NewRandomOrder(n, c.Seed)
	if s.orders == nil {
		s.orders = make(map[orderKey]Order)
	}
	if len(s.orders) >= maxCachedOrders {
		// Cheap wholesale eviction: regeneration is deterministic and
		// O(n); tracking recency would cost more than it saves.
		clear(s.orders)
	}
	s.orders[key] = ord
	return ord, nil
}

// get returns the layout of in under ord, the order c derives from its
// seed, from the entry. An explicit WithOrder is never cached: get
// returns nil, and the problem package builds the layout for the run.
func (e *layoutEntry[I, L]) get(c config, in I, ord Order, build func(*L, I, Order)) *L {
	if c.ExplicitOrder {
		return nil
	}
	if e.in != in || e.seed != c.Seed {
		var invalid I
		e.in = invalid // until the rebuild completes
		build(&e.layout, in, ord)
		e.in, e.seed = in, c.Seed
	}
	return &e.layout
}

// edgesFor returns el's edges gathered into the rank order ord, the
// layout MM and SF read. Under a derived order (cached) it is the
// Solver's edge layout entry, which MM and SF share. An explicit
// WithOrder, or a WithDynamic MM order, which (m, seed) does not
// determine, is gathered into the same buffer for the run and drops the
// key. The runs only read the layout; an empty array is never keyed.
func (s *Solver) edgesFor(c config, el EdgeList, ord Order, cached bool) []Edge {
	e := &s.edges
	var key edgeArray
	if len(el.Edges) > 0 {
		key = edgeArray{first: &el.Edges[0], m: len(el.Edges)}
	}
	if cached && key.first != nil && e.in == key && e.seed == c.Seed {
		return e.layout
	}
	e.in = edgeArray{} // until the gather completes
	el.GatherByRank(&e.layout, ord.Order)
	if cached {
		e.in, e.seed = key, c.Seed
	}
	return e.layout
}

// observerFor adapts the facade observers to the internal round hook:
// a single observer is the hook itself, and several are fanned out to
// in registration order. With no observers it returns nil, so the
// unobserved hot path stays exactly the pre-observer code (and
// allocation-free).
func observerFor(c config) func(RoundInfo) {
	obs := c.observers
	switch len(obs) {
	case 0:
		return nil
	case 1:
		return obs[0]
	}
	return func(ri RoundInfo) {
		for _, fn := range obs {
			fn(ri)
		}
	}
}

// clockFor returns the monotonic nanosecond clock the engine brackets
// its phases with under WithPhaseProfile, or nil (no clock reads at
// all) when profiling is off. The clock lives here, not in the engine:
// the result-affecting packages are under the nodeterminism analyzer
// and never read wall time themselves — the facade injects it, and its
// readings surface only through RoundInfo telemetry.
func clockFor(c config) func() int64 {
	if !c.phaseProfile {
		return nil
	}
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// engineOptions is the engine configuration c denotes — window, grain,
// observers and phase clock — shared by every problem's Options.
// AlgoParallel is the prefix algorithm with the whole input as the
// window every round: Algorithm 2 for MIS and 4 for MM, whose Rounds
// track the dependence length (Theorem 3.5, Lemma 5.1).
func engineOptions(c config) engine.Options {
	opt := engine.Options{
		PrefixSize: c.PrefixSize,
		PrefixFrac: c.PrefixFrac,
		Adaptive:   c.AdaptivePrefix,
		Grain:      c.Grain,
		OnRound:    observerFor(c),
		Clock:      clockFor(c),
	}
	if c.Algorithm == AlgoParallel {
		opt.PrefixSize, opt.PrefixFrac = 0, 1
	}
	return opt
}

// MIS computes a maximal independent set of g under the configured
// options. Long runs honor ctx: cancellation is checked once per round
// (the hot inner loops never see it), so the call returns ctx.Err()
// within one round of the context being cancelled.
func (s *Solver) MIS(ctx context.Context, g *Graph, opts ...Option) (*MISResult, error) {
	c := s.config(opts)
	if err := ProblemMIS.Check(c.Plan); err != nil {
		return nil, err
	}
	coreOpt := core.Options{Options: engineOptions(c), Pointered: c.Pointered, Workspace: &s.misWs}
	// Luby regenerates priorities from the seed every round; deriving
	// (and caching) a priority order for it would be pure waste.
	if c.Algorithm == AlgoLuby {
		return core.LubyMIS(ctx, g, c.Seed, coreOpt)
	}
	ord, err := s.orderFor(c, g.NumVertices())
	if err != nil {
		return nil, err
	}
	coreOpt.Parents = s.parents.get(c, g, ord, (*core.Parents).Build)
	switch c.Algorithm {
	case AlgoRootSet:
		return core.RootSetMIS(ctx, g, ord, coreOpt)
	case AlgoSequential:
		return core.SequentialMIS(ctx, g, ord, coreOpt)
	default:
		return core.PrefixMIS(ctx, g, ord, coreOpt)
	}
}

// MM computes a maximal matching of the edge list el; the priority
// order is over edge identifiers. Cancellation follows the same
// one-round bound as MIS. AlgoLuby is rejected with ErrLubyMatching.
func (s *Solver) MM(ctx context.Context, el EdgeList, opts ...Option) (*MMResult, error) {
	c := s.config(opts)
	if err := ProblemMM.Check(c.Plan); err != nil {
		return nil, err
	}
	var ord Order
	if c.Dynamic {
		// Churn-stable priorities: derived from the edges themselves
		// (see WithDynamic) and never cached — (m, seed) does not
		// determine them.
		ord = dynamic.EdgeOrder(el, c.Seed)
	} else {
		var err error
		ord, err = s.orderFor(c, el.NumEdges())
		if err != nil {
			return nil, err
		}
	}
	opt := matching.Options{
		Options:   engineOptions(c),
		Edges:     s.edgesFor(c, el, ord, !c.ExplicitOrder && !c.Dynamic),
		Workspace: &s.mmWs,
	}
	switch c.Algorithm {
	case AlgoSequential:
		return matching.SequentialMM(ctx, el, ord, opt)
	case AlgoRootSet:
		return matching.RootSetMM(ctx, el, ord, opt)
	default:
		return matching.PrefixMM(ctx, el, ord, opt)
	}
}

// SF computes a greedy spanning forest of the edge list el — the §7
// extension. AlgoSequential runs the sequential scan over the strict
// problem's rank-gathered edges and union-find, and returns the
// lexicographically-first forest. The default runs the prefix-based
// deterministic-reservations version with PBBS one-root semantics
// (spanning.PrefixSFRelaxed): the forest is valid and deterministic for
// a fixed order and prefix at any thread count, but is not necessarily
// the sequential one — reproducing the sequential forest in parallel
// (spanning.PrefixSF) serializes on hub components, the honest finding
// of this reproduction's §7 experiment (see EXPERIMENTS.md). Other
// algorithms are rejected with ErrSpanningAlgorithm. Cancellation
// follows the same one-round bound as MIS.
func (s *Solver) SF(ctx context.Context, el EdgeList, opts ...Option) (*SFResult, error) {
	c := s.config(opts)
	if err := ProblemSF.Check(c.Plan); err != nil {
		return nil, err
	}
	ord, err := s.orderFor(c, el.NumEdges())
	if err != nil {
		return nil, err
	}
	opt := spanning.Options{
		Options:   engineOptions(c),
		Edges:     s.edgesFor(c, el, ord, !c.ExplicitOrder),
		Workspace: &s.sfWs,
	}
	if c.Algorithm == AlgoSequential {
		return spanning.SequentialSF(ctx, el, ord, opt)
	}
	return spanning.PrefixSFRelaxed(ctx, el, ord, opt)
}

// Coloring computes the greedy (first-fit) coloring of g under the
// configured options: vertices in priority order, each taking the
// smallest color absent among its earlier neighbors. AlgoSequential
// runs the sequential scan over the same cached parent lists; the
// default AlgoPrefix runs the speculative
// engine and returns the identical — lexicographically-first — coloring
// at any thread count and prefix size. Other algorithms are rejected
// with ErrColoringAlgorithm, and WithDynamic with
// ErrDynamicUnsupported. Cancellation follows the same one-round bound
// as MIS.
func (s *Solver) Coloring(ctx context.Context, g *Graph, opts ...Option) (*ColoringResult, error) {
	c := s.config(opts)
	if err := ProblemColoring.Check(c.Plan); err != nil {
		return nil, err
	}
	ord, err := s.orderFor(c, g.NumVertices())
	if err != nil {
		return nil, err
	}
	opt := coloring.Options{
		Options:   engineOptions(c),
		Parents:   s.parents.get(c, g, ord, (*core.Parents).Build),
		Workspace: &s.colorWs,
	}
	if c.Algorithm == AlgoSequential {
		return coloring.SequentialColoring(ctx, g, ord, opt)
	}
	return coloring.PrefixColoring(ctx, g, ord, opt)
}

// HittingSet computes the greedy hitting set of the set system sys
// under the configured options: elements in priority order, each
// joining the hitting set exactly when some set containing it is not
// yet hit. AlgoSequential runs the sequential scan over the same cached
// layout; the default AlgoPrefix runs the speculative engine and returns the identical
// greedy hitting set at any thread count and prefix size. Other
// algorithms are rejected with ErrHittingSetAlgorithm, and WithDynamic
// with ErrDynamicUnsupported. Cancellation follows the same one-round
// bound as MIS.
func (s *Solver) HittingSet(ctx context.Context, sys *System, opts ...Option) (*HittingSetResult, error) {
	c := s.config(opts)
	if err := ProblemHittingSet.Check(c.Plan); err != nil {
		return nil, err
	}
	ord, err := s.orderFor(c, sys.NumElements())
	if err != nil {
		return nil, err
	}
	opt := setcover.Options{
		Options:   engineOptions(c),
		Layout:    s.hitting.get(c, sys, ord, (*setcover.Layout).Build),
		Workspace: &s.hsWs,
	}
	if c.Algorithm == AlgoSequential {
		return setcover.SequentialHittingSet(ctx, sys, ord, opt)
	}
	return setcover.PrefixHittingSet(ctx, sys, ord, opt)
}
