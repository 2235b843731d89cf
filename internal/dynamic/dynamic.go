// Package dynamic maintains greedy MIS and maximal matching results
// under streams of edge insertions and deletions.
//
// The paper's core insight makes localized repair possible: greedy
// MIS/MM resolves along a shallow priority DAG (O(log n) dependence
// depth w.h.p. for random orders), so a single edge change can only
// invalidate the downstream priority cone of its endpoints — the items
// reachable from them along strictly-increasing-priority paths. On a
// sparse graph with average degree d that cone has expected size
// bounded by the number of increasing paths (about e^d, independent of
// n), so repairing after a small batch costs work proportional to the
// affected region while almost all of the committed solution survives.
//
// A Maintainer maintains one problem: NewMIS builds one for the MIS,
// NewMM for the matching. It owns a mutable overlay over an immutable
// base graph.Graph (delta adjacency plus tombstones, compacted into a
// fresh CSR once churn passes a fixed threshold). On each batch of
// updates it
//
//  1. applies the structural changes,
//  2. seeds a priority-ordered work frontier with the items whose
//     greedy inputs actually changed (the later endpoint of each
//     changed edge for MIS, the inserted edge / the deleted matched
//     edge's later neighbors for MM — changes incident only to items
//     that stay out of the solution are provably inert and seed
//     nothing), and
//  3. drains the frontier in priority order (a monotone
//     core.FrontierQueue over priority-rank buckets): each popped item
//     is re-decided against its already-final earlier neighborhood,
//     and its downstream neighbors are enqueued only when its
//     in/out-of-solution status actually changed. An item that
//     re-derives its old status terminates propagation on the spot.
//
// The change-driven expansion is the crucial difference from
// re-deciding the seeds' whole downstream cone: the cone holds every
// item reachable from a seed along increasing-priority paths — which
// explodes through high-degree hubs on power-law graphs even when the
// hub's own decision is unaffected — while the frontier pays for a
// hub's fan-out only when the hub genuinely flips. Fischer & Noever's
// tight analysis of randomized greedy (arXiv:1707.05124) bounds the
// realized decision-dependence depth, not the full priority DAG, which
// is why the flip-driven region is typically orders of magnitude
// smaller.
//
// The result after every batch is bit-identical to a from-scratch
// sequential greedy run on the mutated graph. Within one priority
// bucket items are decided with two-phase check/commit rounds (an item
// stalls while an earlier neighbor is pending, and a flip of an
// earlier item re-enqueues any prematurely decided later one), so an
// item's final decision is always made against the final statuses of
// all earlier neighbors — exactly the sequential acceptance rule; an
// item never enqueued kept all of its (unchanged) earlier inputs.
// Bucket rounds above the configured grain decide on a parallel.Team
// that lives for one drain; the committed outcome is independent of
// GOMAXPROCS and grain. MIS and MM share one drain loop (frontier.drain)
// and differ only in seeding, the per-item decision and the flip
// expansion. The fuzz target in this package asserts, on arbitrary
// graphs and update batches, that the repaired answers equal a
// from-scratch sequential run, that Changed counts exactly the items
// whose sequential answers differ between the two graph versions, and
// that Visited stays within the seeds' downstream cone.
//
// MIS priorities are the usual per-vertex random order (stable under
// edge churn because the vertex set is fixed). MM priorities cannot be
// a permutation of edge identifiers — identifiers shift as edges come
// and go — so the maintainer derives a churn-stable priority from the
// edge itself: EdgePriority hashes (seed, u, v). A from-scratch run
// under EdgeOrder uses the same priorities, which is what makes the
// bit-identical assertion (and the service layer's repair-vs-recompute
// interchangeability) well defined for matching.
package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Op is the kind of an edge update.
type Op uint8

const (
	// OpAdd inserts an edge that must not be present.
	OpAdd Op = iota
	// OpDel deletes an edge that must be present.
	OpDel
)

// String returns the wire name of the operation ("add" or "del").
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpDel:
		return "del"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ParseOp maps a wire name to its Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "add":
		return OpAdd, nil
	case "del":
		return OpDel, nil
	default:
		return 0, fmt.Errorf("dynamic: unknown update op %q (want add|del)", s)
	}
}

// Update is one edge insertion or deletion. Endpoints may be given in
// either orientation.
type Update struct {
	Op   Op
	U, V graph.Vertex
}

// Maintainer errors.
var (
	// ErrBadUpdate reports an invalid update batch (self loop,
	// out-of-range endpoint, inserting a present edge, deleting a
	// missing edge, or the same edge twice in one batch). The batch is
	// rejected wholesale: no update of a bad batch is applied.
	ErrBadUpdate = errors.New("dynamic: invalid update batch")
	// ErrBroken reports that a previous Apply was cancelled mid-repair,
	// leaving the maintained solution inconsistent; the Maintainer
	// refuses further use.
	ErrBroken = errors.New("dynamic: maintainer broken by a cancelled repair")
)

// churnFrac is the compaction threshold: once the overlay's delta
// entries exceed this fraction of the adjacency array, the overlay is
// compacted into a fresh CSR.
const churnFrac = 0.25

// RepairCost records the work one Apply spent repairing one problem.
// Attempts/Inspections follow the library's Stats conventions, counted
// over the repair only — the measure of "work proportional to the
// affected region".
type RepairCost struct {
	// Seeds is the number of repair seeds the batch produced (0 means
	// the batch was provably inert for this problem and nothing ran).
	Seeds int `json:"seeds"`
	// Visited is the number of distinct items the repair re-decided:
	// the items the frontier touched, a subset of the seeds'
	// downstream cone.
	Visited int `json:"visited"`
	// Flipped counts committed membership flips during the drain —
	// the propagation events. It can exceed Changed when an item flips
	// more than once before settling (re-push), and equals it
	// otherwise.
	Flipped int `json:"flipped"`
	// FrontierPeak is the high-water mark of the pending frontier.
	FrontierPeak int `json:"frontier_peak"`
	// Rounds/Attempts/Inspections are the decide-loop cost counters:
	// Attempts counts item decide attempts (stalls and re-decides
	// included), Inspections the earlier-neighbor status reads.
	Rounds      int64 `json:"rounds"`
	Attempts    int64 `json:"attempts"`
	Inspections int64 `json:"inspections"`
	// Changed is the number of visited items whose membership actually
	// changed (the true damage; Visited - Changed items were
	// re-derived unchanged).
	Changed int `json:"changed"`
}

// add accumulates costs across batches (used by multi-batch advances).
func (c *RepairCost) add(o RepairCost) {
	c.Seeds += o.Seeds
	c.Visited += o.Visited
	c.Flipped += o.Flipped
	if o.FrontierPeak > c.FrontierPeak {
		c.FrontierPeak = o.FrontierPeak
	}
	c.Rounds += o.Rounds
	c.Attempts += o.Attempts
	c.Inspections += o.Inspections
	c.Changed += o.Changed
}

// RepairStats is the outcome of one Apply.
type RepairStats struct {
	// Added and Removed count the edges inserted and deleted.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// MIS and MM are the repair costs by problem. A Maintainer
	// maintains one problem, so the other section is zero; Cost returns
	// the maintained one.
	MIS RepairCost `json:"mis"`
	MM  RepairCost `json:"mm"`
	// Compacted reports that the overlay was folded into a fresh CSR
	// after this batch.
	Compacted bool `json:"compacted"`
}

// Cost returns the repair cost of the maintained problem: the two
// sections combined, of which the unmaintained one is zero.
func (s RepairStats) Cost() RepairCost {
	c := s.MIS
	c.add(s.MM)
	return c
}

// Add accumulates stats across batches.
func (s *RepairStats) Add(o RepairStats) {
	s.Added += o.Added
	s.Removed += o.Removed
	s.MIS.add(o.MIS)
	s.MM.add(o.MM)
	s.Compacted = s.Compacted || o.Compacted
}

// EdgePriority is the churn-stable priority of the undirected edge
// {u, v} under seed: a hash of the canonical endpoints, identical no
// matter when (or at which edge identifier) the edge enters the graph.
// Smaller is earlier. Ties between distinct edges are broken by the
// canonical endpoint pair, so the induced order is total.
func EdgePriority(u, v graph.Vertex, seed uint64) uint64 {
	if u > v {
		u, v = v, u
	}
	return rng.Hash3(seed, uint64(uint32(u)), uint64(uint32(v)))
}
