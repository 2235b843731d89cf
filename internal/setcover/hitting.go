package setcover

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
)

// Element statuses; monotone undecided -> {in, out} exactly once, with
// the values shared with the engine's outcome codes.
const (
	statusUndecided = engine.Undecided
	statusIn        = engine.Committed
	statusOut       = engine.Dropped
)

// Stats reuses the engine counters (Rounds, Attempts, EdgeInspections —
// here element-of-set inspections — and PrefixSize).
type Stats = core.Stats

// Result is the outcome of a greedy hitting set computation.
type Result struct {
	// InSet[e] reports whether element e is in the hitting set.
	InSet []bool
	// Set lists the chosen elements in increasing element order.
	Set []int32
	// Stats are the run's cost counters.
	Stats Stats
}

// newResult builds the result from the final statuses: status[r] is the
// status of element order[r].
func newResult(status, order []int32, stats Stats) *Result {
	in, set := engine.Members(status, order)
	return &Result{InSet: in, Set: set, Stats: stats}
}

// Size returns the number of chosen elements.
func (r *Result) Size() int { return len(r.Set) }

// Equal reports whether two results choose exactly the same elements.
func (r *Result) Equal(other *Result) bool {
	if len(r.InSet) != len(other.InSet) {
		return false
	}
	for i := range r.InSet {
		if r.InSet[i] != other.InSet[i] {
			return false
		}
	}
	return true
}

// Options configures the parallel hitting set algorithm: the engine's
// window, grain and telemetry knobs (see engine.Options; PrefixSize and
// PrefixFrac count elements), plus the fields below. The hitting set
// stays bit-identical to the sequential greedy one for every window
// schedule.
type Options struct {
	engine.Options
	// Layout, if non-nil, is the rank-space layout of the input system
	// under the run's order (see BuildLayout), reused by
	// PrefixHittingSet instead of building it per run.
	Layout *Layout
	// Workspace, if non-nil, supplies pooled per-run buffers reused
	// across runs. nil means allocate fresh buffers.
	Workspace *Workspace
}

// SequentialHittingSet computes the greedy hitting set of s under ord:
// elements in priority order, each joining the hitting set exactly when
// some set containing it is not yet hit. It is the engine's sequential
// scan over the adapter PrefixHittingSet runs, deciding each rank with
// the same check (hsProblem.check) over the same layout (opt.Layout
// when set, built for this run otherwise).
//
// Stats: Rounds = Attempts = n, and EdgeInspections counts the earlier
// members the decisions scan. ctx is checked every 4,096 elements, and
// pooled buffers come from opt.Workspace when set.
func SequentialHittingSet(ctx context.Context, s *System, ord core.Order, opt Options) (*Result, error) {
	prob, _ := newHSProblem(s, ord, opt)
	stats, err := engine.Scan(ctx, len(prob.status), prob)
	if err != nil {
		return nil, err
	}
	return newResult(prob.status, ord.Order, stats), nil
}

// PrefixHittingSet computes the greedy hitting set with the
// prefix-based speculative engine. Each round, every active element
// examines its sets against the earlier-priority elements of each:
//
//   - if some set containing the element has ALL of its earlier
//     elements decided out, that set is definitely unhit when the
//     element's sequential turn comes, so the element joins the
//     hitting set (vacuously, a set with no earlier elements);
//   - if every set containing the element is already hit by an earlier
//     element that is in, the element is definitely redundant and
//     drops out (vacuously, an element contained in no set);
//   - otherwise some set's fate still depends on an undecided earlier
//     element, and the element retries next round.
//
// The earliest active element always decides, so the loop makes
// progress, and because an element decides only from final
// earlier-priority state the result equals the sequential greedy
// hitting set for every window schedule, grain and thread count.
//
// ctx is checked once per round, so a cancelled context aborts within
// one round and returns ctx.Err(). Pooled buffers come
// from opt.Workspace when set; the layout from opt.Layout when set, and
// it is built for this run otherwise. The run decides ranks; the
// statuses are mapped back to elements through ord.Order at the end.
func PrefixHittingSet(ctx context.Context, s *System, ord core.Order, opt Options) (*Result, error) {
	prob, ws := newHSProblem(s, ord, opt)
	stats, err := engine.Run(ctx, len(prob.status), prob, opt.Options, &ws.eng)
	if err != nil {
		return nil, err
	}
	return newResult(prob.status, ord.Order, stats), nil
}

// newHSProblem is the set-up PrefixHittingSet and SequentialHittingSet
// share: the workspace, the rank-indexed status array and the layout.
func newHSProblem(s *System, ord core.Order, opt Options) (*hsProblem, *Workspace) {
	n := s.NumElements()
	if ord.Len() != n {
		panic("setcover: order size does not match system")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	status := engine.Grow32(&ws.status, n)
	engine.Fill32(status, statusUndecided)
	layout := opt.Layout
	if layout == nil {
		layout = BuildLayout(s, ord)
	}
	return &hsProblem{layout: layout, sys: s, rank: ord.Rank, status: status}, ws
}

// hsProblem is the engine adapter for greedy hitting set, indexed by
// rank. Like the MIS problem it needs no atomics: the check phase reads
// only statuses written in previous rounds and the commit phase writes
// each rank's own status, with the engine's fork-join barrier as the
// only synchronization. rank is read only for the layout's references
// to sets past inlineMax.
type hsProblem struct {
	layout *Layout
	sys    *System
	rank   []int32
	status []int32
}

func (p *hsProblem) Check(act, outcome []int32, lo, hi int) int64 {
	var local int64
	for i := lo; i < hi; i++ {
		var insp int64
		outcome[i], insp = p.check(act[i])
		local += insp
	}
	return local
}

func (p *hsProblem) Commit(act, outcome []int32, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		if outcome[i] != statusUndecided {
			p.status[act[i]] = outcome[i]
		}
	}
	return 0
}

// Decide is the sequential step: with every earlier rank final, check
// never leaves r undecided.
func (p *hsProblem) Decide(r int32) int64 {
	st, insp := p.check(r)
	p.status[r] = st
	return insp
}

// check decides rank r from its layout row; see PrefixHittingSet for
// the rule. Returns the decision (statusUndecided to retry) and the
// number of element inspections.
func (p *hsProblem) check(r int32) (int32, int64) {
	row := p.layout.row(r)
	var inspections int64
	allHit := true
	for i := 0; i < len(row); {
		var insp int64
		var hit, undecided bool
		if h := row[i]; h >= 0 {
			insp, hit, undecided = scanGroup(row[i+1:i+1+int(h)], p.status)
			i += 1 + int(h)
		} else {
			insp, hit, undecided = p.scanSet(-h-1, r)
			i++
		}
		inspections += insp
		if hit {
			continue
		}
		if !undecided {
			// Every earlier member is out: the set is definitely unhit
			// at r's sequential turn, so r is needed.
			return statusIn, inspections
		}
		allHit = false
	}
	if allHit {
		return statusOut, inspections
	}
	return statusUndecided, inspections
}

// scanGroup inspects the earlier members of one set, stopping at the
// first one in the hitting set. It reports the inspections, whether a
// member is in, and whether one is still undecided.
func scanGroup(ranks, status []int32) (insp int64, hit, undecided bool) {
	for _, x := range ranks {
		insp++
		switch status[x] {
		case statusIn:
			return insp, true, undecided
		case statusUndecided:
			undecided = true
		}
	}
	return insp, false, undecided
}

// scanSet is scanGroup over set id's members of rank below r, read
// from the system with a rank filter.
func (p *hsProblem) scanSet(id, r int32) (insp int64, hit, undecided bool) {
	for _, x := range p.sys.ElemsOf(id) {
		rx := p.rank[x]
		if rx >= r {
			continue
		}
		insp++
		switch p.status[rx] {
		case statusIn:
			return insp, true, undecided
		case statusUndecided:
			undecided = true
		}
	}
	return insp, false, undecided
}
