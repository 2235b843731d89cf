package greedy

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/spanning"
)

// Problem names one of the greedy problems. Its values are the wire
// names the service and the cmd tools use.
type Problem string

// The paper's MIS and MM, the §7 spanning forest, and the two greedy
// problems the shared engine opened: first-fit coloring, hitting set.
const (
	ProblemMIS        Problem = "mis"
	ProblemMM         Problem = "mm"
	ProblemSF         Problem = "sf"
	ProblemColoring   Problem = "coloring"
	ProblemHittingSet Problem = "hittingset"
)

// problemRule is one row of the problem table: the plans a problem
// accepts. The Solver, the service and the cmd tools all read it.
type problemRule struct {
	problem Problem
	// algorithms run the problem; algoErr is reported for the others.
	algorithms []Algorithm
	algoErr    error
	// dynamic reports a churn-stable variant (WithDynamic and the
	// sessions); derivedOrder, that its priorities come from the input
	// itself, so an explicit order cannot join it.
	dynamic, derivedOrder bool
	// relaxed reports that the prefix algorithm may pick another valid
	// answer than the sequential one, of the same size.
	relaxed bool
}

var problemTable = [...]problemRule{
	{problem: ProblemMIS, dynamic: true,
		algorithms: []Algorithm{AlgoPrefix, AlgoSequential, AlgoRootSet, AlgoParallel, AlgoLuby}},
	{problem: ProblemMM, dynamic: true, derivedOrder: true, algoErr: ErrLubyMatching,
		algorithms: []Algorithm{AlgoPrefix, AlgoSequential, AlgoRootSet, AlgoParallel}},
	{problem: ProblemSF, relaxed: true, algoErr: ErrSpanningAlgorithm,
		algorithms: []Algorithm{AlgoPrefix, AlgoSequential}},
	{problem: ProblemColoring, algoErr: ErrColoringAlgorithm,
		algorithms: []Algorithm{AlgoPrefix, AlgoSequential}},
	{problem: ProblemHittingSet, algoErr: ErrHittingSetAlgorithm,
		algorithms: []Algorithm{AlgoPrefix, AlgoSequential}},
}

// Problems returns every problem, in table order.
func Problems() []Problem {
	ps := make([]Problem, len(problemTable))
	for i := range problemTable {
		ps[i] = problemTable[i].problem
	}
	return ps
}

// names joins the names of the problems whose rows satisfy sel.
func names(sel func(*problemRule) bool) string {
	var ns []string
	for i := range problemTable {
		if sel(&problemTable[i]) {
			ns = append(ns, string(problemTable[i].problem))
		}
	}
	return strings.Join(ns, "|")
}

// ParseProblem validates a problem name.
func ParseProblem(s string) (Problem, error) {
	if _, err := Problem(s).rule(); err != nil {
		return "", err
	}
	return Problem(s), nil
}

func (p Problem) rule() (*problemRule, error) {
	for i := range problemTable {
		if problemTable[i].problem == p {
			return &problemTable[i], nil
		}
	}
	return nil, fmt.Errorf("greedy: unknown problem %q (want %s)", p, names(func(*problemRule) bool { return true }))
}

// Check reports whether plan can run problem p, by p's table row: the
// algorithm must run p, an adaptive window needs AlgoPrefix, and a
// dynamic plan needs a churn-stable variant, no Luby (it regenerates
// priorities every round) and, where the variant derives priorities
// from the input, no explicit order. Every Solver run checks first.
func (p Problem) Check(plan Plan) error {
	r, err := p.rule()
	if err != nil {
		return err
	}
	a := plan.Algorithm
	if !slices.Contains(r.algorithms, a) {
		runs := names(func(o *problemRule) bool { return slices.Contains(o.algorithms, a) })
		if runs == "" {
			return fmt.Errorf("greedy: unknown algorithm %q", a)
		}
		return fmt.Errorf("%w: %q applies to %s only", r.algoErr, a, strings.ToUpper(runs))
	}
	if plan.AdaptivePrefix && a != AlgoPrefix {
		return fmt.Errorf("%w: got %q", ErrAdaptiveAlgorithm, a)
	}
	switch {
	case !plan.Dynamic:
	case !r.dynamic:
		return fmt.Errorf("%w: dynamic plans support problems %s, not %q", ErrDynamicUnsupported,
			names(func(o *problemRule) bool { return o.dynamic }), p)
	case a == AlgoLuby:
		return fmt.Errorf("%w: dynamic plans cannot use algorithm %q", ErrDynamicUnsupported, a)
	case plan.ExplicitOrder && r.derivedOrder:
		return fmt.Errorf("%w: WithOrder cannot combine with dynamic %s", ErrDynamicUnsupported, p)
	}
	return nil
}

// Input is a graph in the forms the problems read: itself (MIS,
// coloring), its edge list (MM, SF) and its vertex-cover system
// (hitting set). Solve reads only its problem's form, so an Input can
// derive the others lazily, as the service's graph handles do.
type Input interface {
	Graph() *Graph
	EdgeList() EdgeList
	HittingSystem() *System
}

// GraphInput returns the Input of g; it derives the edge list and the
// vertex-cover system on first use and keeps them.
func GraphInput(g *Graph) Input {
	el := sync.OnceValue(g.EdgeList)
	return graphInput{g, el, sync.OnceValue(func() *System { return HittingSystemFromEdges(el()) })}
}

type graphInput struct {
	g   *Graph
	el  func() EdgeList
	sys func() *System
}

func (in graphInput) Graph() *Graph          { return in.g }
func (in graphInput) EdgeList() EdgeList     { return in.el() }
func (in graphInput) HittingSystem() *System { return in.sys() }

// Answer is a result in problem-independent form.
type Answer struct {
	Problem Problem
	// Size counts the selected items, or the colors for coloring.
	Size  int
	Stats Stats
	// In is the membership bit of every vertex (MIS), edge (MM, SF) or
	// element (hitting set); coloring has Colors, one per vertex.
	In     []bool
	Colors []int32
	// Members lists the selected vertices (MIS) or elements (hitting
	// set) in increasing order; Pairs lists the selected edges (MM, SF).
	Members []int32
	Pairs   []Edge
}

// Solve runs problem p on in through p's Solver method, with its
// checks, caches and cancellation, and returns the answer.
func (s *Solver) Solve(ctx context.Context, p Problem, in Input, opts ...Option) (Answer, error) {
	a := Answer{Problem: p}
	var err error
	switch p {
	case ProblemMIS:
		var r *MISResult
		if r, err = s.MIS(ctx, in.Graph(), opts...); err == nil {
			a.Size, a.Stats, a.In, a.Members = r.Size(), r.Stats, r.InSet, r.Set
		}
	case ProblemMM:
		var r *MMResult
		if r, err = s.MM(ctx, in.EdgeList(), opts...); err == nil {
			a.Size, a.Stats, a.In, a.Pairs = r.Size(), r.Stats, r.InMatching, r.Pairs
		}
	case ProblemSF:
		var r *SFResult
		if r, err = s.SF(ctx, in.EdgeList(), opts...); err == nil {
			a.Size, a.Stats, a.In, a.Pairs = r.Size(), r.Stats, r.InForest, r.Edges
		}
	case ProblemColoring:
		var r *ColoringResult
		if r, err = s.Coloring(ctx, in.Graph(), opts...); err == nil {
			a.Size, a.Stats, a.Colors = r.NumColors, r.Stats, r.Colors
		}
	case ProblemHittingSet:
		var r *HittingSetResult
		if r, err = s.HittingSet(ctx, in.HittingSystem(), opts...); err == nil {
			a.Size, a.Stats, a.In, a.Members = r.Size(), r.Stats, r.InSet, r.Set
		}
	default:
		_, err = p.rule()
	}
	return a, err
}

// Verify checks that a is a valid answer on in: a maximal independent
// set, maximal matching, spanning forest, proper coloring or hitting set.
func (a Answer) Verify(in Input) error {
	ok := true
	switch a.Problem {
	case ProblemMIS:
		ok = core.IsMaximalIndependentSet(in.Graph(), a.In)
	case ProblemMM:
		ok = matching.IsMaximalMatching(in.EdgeList(), a.In)
	case ProblemSF:
		ok = spanning.IsForest(in.EdgeList(), a.In) && spanning.IsSpanning(in.EdgeList(), a.In)
	case ProblemColoring:
		return coloring.Verify(in.Graph(), a.Colors)
	case ProblemHittingSet:
		return in.HittingSystem().Verify(a.In)
	default:
		_, err := a.Problem.rule()
		return err
	}
	if !ok {
		return fmt.Errorf("greedy: not a valid %s answer", a.Problem)
	}
	return nil
}

// Checksum commits to a's selection with 64-bit FNV-1a, as 16 hex
// digits: over the little-endian int32 colors of a coloring, over one
// byte per membership bit, or, for an answer with pairs and no bits (a
// maintained matching), over its little-endian (U, V) pairs. It is the
// digest greedyd serves, and it allocates only the returned string.
func (a Answer) Checksum() string {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	word := func(w int32) {
		for i := 0; i < 32; i += 8 {
			h = (h ^ uint64(uint8(w>>i))) * prime64
		}
	}
	switch {
	case a.Colors != nil:
		for _, c := range a.Colors {
			word(c)
		}
	case a.In != nil:
		for _, x := range a.In {
			if x {
				h ^= 1
			}
			h *= prime64
		}
	default:
		for _, e := range a.Pairs {
			word(e.U)
			word(e.V)
		}
	}
	const digits = "0123456789abcdef"
	var out [16]byte
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = digits[h&15]
		h >>= 4
	}
	return string(out[:])
}

// Matches reports whether a agrees with seq, the sequential answer on
// the same input and order: bit-identical, with the same pairs where
// either answer has no bits (a maintained matching), or of the same
// size where the prefix algorithm is relaxed (spanning forest).
func (a Answer) Matches(seq Answer) bool {
	if a.Problem != seq.Problem {
		return false
	}
	if r, err := a.Problem.rule(); err == nil && r.relaxed {
		return a.Size == seq.Size
	}
	if a.In == nil && a.Colors == nil || seq.In == nil && seq.Colors == nil {
		return slices.Equal(a.Pairs, seq.Pairs)
	}
	return slices.Equal(a.In, seq.In) && slices.Equal(a.Colors, seq.Colors)
}
