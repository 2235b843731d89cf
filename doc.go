// Package greedy (module repro) is a Go reproduction of Blelloch,
// Fineman and Shun, "Greedy Sequential Maximal Independent Set and
// Matching are Parallel on Average" (SPAA 2012, arXiv:1202.3205).
//
// The paper's observation: the familiar sequential greedy algorithms for
// maximal independent set (MIS) and maximal matching (MM) — scan the
// items in a fixed random order, accept an item unless an earlier
// accepted neighbor forbids it — have only polylogarithmic sequential
// depth on average. Running the iterations "as early as their
// dependencies allow" therefore yields parallel algorithms that are
// simultaneously fast and deterministic: for a fixed priority order they
// return bit-identical results at any thread count, namely the
// lexicographically-first solution the sequential algorithm defines.
//
// # The Solver API
//
// The facade's primary entry point is the Solver, built for callers
// that run many computations (benchmark sweeps, serving workers):
//
//	solver := greedy.NewSolver(greedy.WithSeed(7))
//	res, err := solver.MIS(ctx, g)                    // cancellable
//	mm, err := solver.MM(ctx, g.EdgeList())
//	sf, err := solver.SF(ctx, g.EdgeList())
//	col, err := solver.Coloring(ctx, g)               // first-fit greedy coloring
//	hs, err := solver.HittingSet(ctx, greedy.HittingSystemFromEdges(g.EdgeList()))
//
// All five problems run on one shared speculative-prefix engine
// (internal/engine): per round the earliest unresolved iterates are
// checked against earlier-priority state and the winners committed, so
// every problem inherits the same determinism (sequential-greedy
// results at any thread count), window schedules (fixed or adaptive),
// cancellation and observer semantics. Coloring computes the first-fit
// greedy coloring in priority order; HittingSet computes the greedy
// hitting set of an arbitrary set system (NewSystem), with
// HittingSystemFromEdges providing the classic greedy-vertex-cover
// instance. WeightedOrder builds descending-weight priority orders
// (seeded tiebreak), turning any of the five into its weighted-greedy
// variant.
//
// A Solver owns a reusable Workspace: the per-run arrays (frontier,
// status flags, reservations, priority orders) are allocated once,
// sized up lazily, and reused across runs on same-or-smaller inputs —
// results stay bit-identical to fresh-memory runs while steady-state
// allocation drops to little more than the returned Result. The engine
// iterates over priority ranks, and the Solver keeps the rank-space
// layouts that depend only on the input and the order — MIS and
// coloring parent lists per (graph, seed), the hitting-set layout per
// (system, seed) — so repeated runs on one pair build them once. A
// Solver is not safe for concurrent use; keep one per goroutine.
//
// Every Solver method takes a context, checked once per round of the
// round-synchronous algorithms (the hot inner loops never see it), so
// cancelling aborts a long run within one round and returns ctx.Err().
// WithRoundObserver streams per-round statistics (RoundInfo: round
// index, prefix size, accepted count, edge inspections — the paper's
// Figure 1 quantities) as the run progresses.
//
// Each Problem (mis, mm, sf, coloring, hittingset: the wire names) has
// one row in the facade's problem table, which Problem.Check reads: the
// algorithms that run it and whether it has a dynamic variant. Every
// Solver run checks its plan there first, and the service admits jobs
// by the same check. Solver.Solve runs any problem on an Input (a
// graph with its lazily derived edge list and set system; GraphInput
// wraps a *Graph) and returns a problem-independent Answer.
// Configuration mistakes come back as errors, not panics:
// ErrLubyMatching, ErrSpanningAlgorithm, ErrColoringAlgorithm and
// ErrHittingSetAlgorithm for an algorithm that does not run the
// problem, ErrAdaptiveAlgorithm, ErrDynamicUnsupported and ErrOrderSize.
//
// # One-shot runs
//
// A script that solves once makes a Solver for the call, and
// Answer.Verify checks an answer of any problem on its input:
//
//	g := greedy.RandomGraph(1_000_000, 5_000_000, 42)
//	in := greedy.GraphInput(g)
//	ans, err := greedy.NewSolver().Solve(ctx, greedy.ProblemMIS, in, greedy.WithSeed(7))
//	fmt.Println(ans.Size, ans.Stats, ans.Verify(in))
//
// # Dynamic graphs
//
// Solver.Dynamic(ctx, p, g, opts...) returns a Session that maintains
// problem p's answer (MIS or MM) under streams of edge insertions and
// deletions: each Apply drains a change-driven priority frontier —
// seeded only by the directly-perturbed items and expanded to an item's
// downstream neighbors only when its membership actually flipped —
// instead of recomputing, and the maintained answer is always
// bit-identical to a from-scratch sequential greedy run on the mutated
// graph. Dynamic checks the plan against p's table row as Solve does;
// MISDynamic and MMDynamic open the same sessions with the MIS result
// and the matching's pairs as accessors:
//
//	sess, err := solver.Dynamic(ctx, greedy.ProblemMIS, g)
//	stats, err := sess.Apply(ctx, []greedy.DynamicUpdate{{Op: greedy.OpAdd, U: 1, V: 2}})
//	ans := sess.Answer()
//
// Session.Answer returns the maintained answer in Solve's form; a
// matching's has its sorted pairs and no edge bits, and Answer.Matches
// compares such answers by their pairs. The returned RepairStats speak
// frontier, one section per problem, and RepairStats.Cost returns the
// session problem's: Seeds, Visited (distinct items re-decided),
// Flipped (membership flips propagated — items that re-derive their
// old decision stop the propagation, so an unaffected hub costs one
// decision, not its fan-out), FrontierPeak, and Changed.
//
// WithDynamic selects the same churn-stable priorities for one-shot
// runs (a no-op for MIS, hash-derived edge priorities for MM), which
// is what lets the service answer a dynamic-plan job by repair or by
// recompute interchangeably.
//
// # Plans
//
// A Plan is the resolved, serializable form of an option list and
// round-trips through JSON with canonical algorithm names — the wire
// form the service layer uses for job submission and deduplication.
//
// The internal packages hold the substance: internal/engine (the one
// speculative check/commit round loop all problems share),
// internal/core (MIS, priority-DAG analyzers), internal/matching (MM),
// internal/spanning, internal/coloring (first-fit greedy coloring),
// internal/setcover (greedy hitting set over dual-CSR set systems),
// internal/dynamic (incremental MIS/MM maintenance under edge churn),
// internal/graph (CSR graphs, generators, I/O), internal/parallel
// (fork-join primitives), internal/service (the greedyd serving layer
// with cancellable jobs, graph versioning via PATCH, and live
// progress) and internal/bench (the experiment harness reproducing
// every figure; see cmd/bench and EXPERIMENTS.md).
package greedy
