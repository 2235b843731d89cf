package greedy

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/setcover"
	"repro/internal/spanning"
)

// Re-exported graph types: the facade and the internal packages share
// representations, so no conversion costs are ever paid.
type (
	// Graph is an immutable undirected graph in CSR form.
	Graph = graph.Graph
	// Edge is an undirected edge {U, V}.
	Edge = graph.Edge
	// EdgeList is the edge-array view used by the matching algorithms.
	// A Solver reuses what it derived from an edge array (see Solver),
	// so an array passed to a Solver must not be modified in place
	// between its calls; pass a new array instead.
	EdgeList = graph.EdgeList
	// Vertex indexes a vertex.
	Vertex = graph.Vertex
	// Order is a priority permutation (the paper's pi).
	Order = core.Order
	// MISResult is the outcome of a maximal independent set run.
	MISResult = core.Result
	// MMResult is the outcome of a maximal matching run.
	MMResult = matching.Result
	// SFResult is the outcome of a spanning forest run.
	SFResult = spanning.Result
	// ColoringResult is the outcome of a greedy coloring run.
	ColoringResult = coloring.Result
	// HittingSetResult is the outcome of a greedy hitting set run.
	HittingSetResult = setcover.Result
	// System is an immutable set system (universe of elements, family of
	// sets) for the hitting set problem.
	System = setcover.System
	// Stats holds the machine-independent cost counters (rounds,
	// attempts, edge inspections) the paper plots.
	Stats = core.Stats
)

// Graph constructors.

// NewGraph builds a simple undirected graph on n vertices from an edge
// list; self loops are dropped and duplicates merged.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// RandomGraph returns the paper's first experimental input family: a
// uniform sparse random graph with n vertices and m edges.
func RandomGraph(n, m int, seed uint64) *Graph { return graph.Random(n, m, seed) }

// RMatGraph returns the paper's second input family: an rMat graph with
// 2^logN vertices, m edges and power-law degrees.
func RMatGraph(logN, m int, seed uint64) *Graph {
	return graph.RMat(logN, m, seed)
}

// NewRandomOrder returns a uniformly random priority order on n items,
// deterministic in (n, seed).
func NewRandomOrder(n int, seed uint64) Order { return core.NewRandomOrder(n, seed) }

// WeightedOrder returns the priority order that ranks items by
// descending weight, with seed-hashed tiebreaks (see
// core.WeightedOrder). Combined with WithOrder, it turns any of the
// deterministic algorithms into its weighted-greedy variant —
// highest-weight-first MIS, matching, coloring or hitting set — with
// the usual bit-identical determinism at any thread count.
func WeightedOrder(weights []float64, seed uint64) Order {
	return core.WeightedOrder(weights, seed)
}

// NewSystem builds a set system over numElements elements for the
// hitting set problem; each set is a list of element ids in
// [0, numElements).
func NewSystem(numElements int, sets [][]int32) (*System, error) {
	return setcover.FromSets(numElements, sets)
}

// HittingSystemFromEdges builds the vertex-cover system of an edge
// list: one two-element set per edge, over the vertices as elements.
// The greedy hitting set of this system is the greedy vertex cover.
func HittingSystemFromEdges(el EdgeList) *System { return setcover.FromEdges(el) }

// Algorithm selects an implementation strategy.
type Algorithm int

const (
	// AlgoPrefix is the paper's experimental algorithm (Algorithm 3):
	// prefix-based speculative execution, the default.
	AlgoPrefix Algorithm = iota
	// AlgoSequential is the greedy sequential algorithm (Algorithm 1).
	AlgoSequential
	// AlgoRootSet is the linear-work root-set implementation (Lemma
	// 4.2 for MIS, Lemma 5.3 for MM).
	AlgoRootSet
	// AlgoParallel is Algorithm 2/4: the full input processed as one
	// prefix every round.
	AlgoParallel
	// AlgoLuby is Luby's Algorithm A (MIS only); unlike the others it
	// does not return the lexicographically-first answer.
	AlgoLuby
)

// String returns the canonical lower-case name of a, the inverse of
// ParseAlgorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoPrefix:
		return "prefix"
	case AlgoSequential:
		return "sequential"
	case AlgoRootSet:
		return "rootset"
	case AlgoParallel:
		return "parallel"
	case AlgoLuby:
		return "luby"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a canonical algorithm name (as produced by
// Algorithm.String and accepted by the cmd tools) to its Algorithm
// value. The empty string selects the default, AlgoPrefix.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "prefix":
		return AlgoPrefix, nil
	case "sequential", "seq":
		return AlgoSequential, nil
	case "rootset":
		return AlgoRootSet, nil
	case "parallel":
		return AlgoParallel, nil
	case "luby":
		return AlgoLuby, nil
	default:
		return AlgoPrefix, fmt.Errorf("greedy: unknown algorithm %q (want sequential|parallel|rootset|prefix|luby)", s)
	}
}

// config is what an option list denotes: its Plan, plus what a Plan
// does not carry — the explicit order, the phase profile and the
// observers.
type config struct {
	Plan
	order        Order // set with ExplicitOrder
	phaseProfile bool
	observers    []func(RoundInfo)
}

// An Option configures the solver entry points.
type Option func(*config)

// WithAlgorithm selects the implementation (default AlgoPrefix).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.Algorithm = a } }

// WithSeed sets the seed from which the priority order is derived
// (default 1). Two runs with the same graph and seed return identical
// results for every deterministic algorithm at any thread count.
func WithSeed(seed uint64) Option { return func(c *config) { c.Seed = seed } }

// WithOrder fixes an explicit priority order instead of deriving one
// from the seed.
func WithOrder(ord Order) Option {
	return func(c *config) { c.order, c.ExplicitOrder = ord, true }
}

// WithPrefixFrac sets the prefix size as a fraction of the input — the
// work/parallelism dial of the paper's Figure 1. 1.0 is maximally
// parallel; values around 0.005 are near the running-time optimum.
func WithPrefixFrac(frac float64) Option { return func(c *config) { c.PrefixFrac = frac } }

// WithPrefixSize sets an absolute prefix size (overrides WithPrefixFrac).
func WithPrefixSize(size int) Option { return func(c *config) { c.PrefixSize = size } }

// WithAdaptivePrefix replaces the fixed prefix window of AlgoPrefix
// with a measured, self-tuning schedule: after every round the window
// doubles while the resolved/attempted ratio stays high and halves
// when it collapses or the edge-inspection cost per resolved iterate
// explodes, bounded by [1, input size]. Results are bit-identical to
// the fixed-prefix and sequential paths — the window changes only how
// many of the earliest unresolved iterates run per round, never their
// order — and the schedule is a deterministic function of the run, so
// adaptive plans remain sound dedup keys. WithPrefixSize/WithPrefixFrac
// seed the initial window when set; otherwise the run starts at one
// grain-sized chunk and doubles its way up. Requesting it with any
// algorithm other than AlgoPrefix is reported as ErrAdaptiveAlgorithm.
func WithAdaptivePrefix() Option { return func(c *config) { c.AdaptivePrefix = true } }

// WithDynamic selects churn-stable priorities, the ones the dynamic
// subsystem maintains incrementally (see Solver.MISDynamic/MMDynamic):
// MIS keeps the usual per-vertex random order (already stable — the
// vertex set does not change under edge churn), while MM derives each
// edge's priority from a hash of (seed, endpoints) instead of a
// permutation of edge identifiers, so an edge keeps its priority no
// matter when it enters or leaves the graph. A one-shot Solver.MM run
// with WithDynamic computes exactly the matching a dynamic session
// with the same seed maintains — which is what lets the service layer
// answer a dynamic-plan job either by repair or by recompute
// interchangeably. Luby and the problems without a churn-stable variant
// (SF, coloring, hitting set) report ErrDynamicUnsupported.
func WithDynamic() Option { return func(c *config) { c.Dynamic = true } }

// WithGrain sets the parallel-loop grain size (default 256, as in the
// paper).
func WithGrain(grain int) Option { return func(c *config) { c.Grain = grain } }

// WithPointer enables the Lemma 4.1 parent-pointer optimization in the
// prefix-based MIS.
func WithPointer() Option { return func(c *config) { c.Pointered = true } }

// WithPhaseProfile enables per-phase wall-time attribution in the
// round-synchronous engine: each RoundInfo reported to a
// WithRoundObserver carries the round's check/commit/slide durations
// (CheckNS, CommitNS, SlideNS; ResetNS is always 0) and retry-tail
// size. The profile is
// telemetry only — it never influences the computation, so it does NOT
// participate in a Plan (two runs differing only in profiling are the
// same computation and remain dedup-equal). Without an observer the
// durations are measured and discarded; without this option the engine
// performs no clock reads at all, keeping the dark path byte-identical
// and allocation-free.
func WithPhaseProfile() Option { return func(c *config) { c.phaseProfile = true } }

// Plan is the resolved configuration an option list denotes: the
// algorithm, seed and tuning knobs after defaults are applied. Because
// every deterministic algorithm returns bit-identical results for a
// fixed (graph, Plan) at any thread count, a Plan is a valid cache or
// idempotency key for a computation — the property the service layer
// relies on to deduplicate submissions. An explicit WithOrder is not
// representable in a Plan (orders are not serializable values) and is
// reported by ExplicitOrder.
type Plan struct {
	Algorithm  Algorithm
	Seed       uint64
	PrefixFrac float64
	PrefixSize int
	// AdaptivePrefix selects the measured window schedule of
	// WithAdaptivePrefix. The schedule is deterministic per (graph,
	// plan), so adaptive plans stay valid dedup keys; on the wire it
	// travels as "prefix": "adaptive".
	AdaptivePrefix bool
	// Dynamic selects the churn-stable priorities of WithDynamic. It
	// participates in dedup keys: a dynamic MM plan selects a different
	// (hash-priority) matching than the identifier-permutation plans.
	Dynamic   bool
	Grain     int
	Pointered bool
	// ExplicitOrder reports that WithOrder was supplied; such a
	// configuration must not be used as a dedup key.
	ExplicitOrder bool
}

// ResolvePlan applies opts over the defaults and returns the resulting
// Plan — the exact option→configuration mapping the solver entry points
// use internally, that of a Solver without defaults.
func ResolvePlan(opts ...Option) Plan { return NewSolver().config(opts).Plan }

// Options converts p back to an option list accepted by the solver
// entry points. ResolvePlan(p.Options()...) round-trips every field
// except ExplicitOrder.
func (p Plan) Options() []Option {
	opts := []Option{WithAlgorithm(p.Algorithm), WithSeed(p.Seed)}
	if p.PrefixFrac != 0 {
		opts = append(opts, WithPrefixFrac(p.PrefixFrac))
	}
	if p.PrefixSize != 0 {
		opts = append(opts, WithPrefixSize(p.PrefixSize))
	}
	if p.AdaptivePrefix {
		opts = append(opts, WithAdaptivePrefix())
	}
	if p.Dynamic {
		opts = append(opts, WithDynamic())
	}
	if p.Grain != 0 {
		opts = append(opts, WithGrain(p.Grain))
	}
	if p.Pointered {
		opts = append(opts, WithPointer())
	}
	return opts
}

// VerifyLexFirstMIS checks that result is exactly the sequential greedy
// MIS under ord.
func VerifyLexFirstMIS(g *Graph, ord Order, result *MISResult) error {
	return core.VerifyLexFirst(g, ord, result)
}

// VerifyLexFirstMM checks that result is exactly the sequential greedy
// matching under ord.
func VerifyLexFirstMM(el EdgeList, ord Order, result *MMResult) error {
	return matching.VerifyLexFirst(el, ord, result)
}

// DependenceLength returns the dependence length of (g, ord): the number
// of rounds Algorithm 2 needs, which Theorem 3.5 bounds by O(log^2 n)
// w.h.p. for random orders.
func DependenceLength(g *Graph, ord Order) int {
	return core.DependenceSteps(g, ord).Steps
}
