package dynamic

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
)

// Item statuses, identical in meaning to the core/matching packages'
// and valued as the engine's outcome codes. The stored status is always
// In or Out (a pending mark, not a stored sentinel, says "do not trust
// me yet"); statusUndecided is only the per-round stall outcome.
const (
	statusUndecided = engine.Undecided
	statusIn        = engine.Committed
	statusOut       = engine.Dropped
)

// misFrontierBuckets bounds the frontier queue's bucket count (and so
// its per-repair reset cost) for MIS rank bucketing.
const misFrontierBuckets = 1024

// misState maintains the greedy MIS of the overlay ov under the fixed
// vertex order ord.
type misState struct {
	ord    core.Order
	status []int32
	ov     *overlay

	// rank >> shift is a vertex's frontier bucket.
	shift   uint
	buckets int
	fr      frontier

	seedBuf []int32
}

// newMISState computes the initial MIS of ov's base graph under ord
// with the library's prefix round loop, on parents when non-nil, and
// captures its status vector. Repair scratch is pre-sized to the vertex
// universe so the first Apply pays no universe-sized allocation.
//
//lint:allow ctxround ctx is consumed by PrefixMIS (checked every round); the remaining loop is one bounded O(n) status conversion, cheaper than a single solver round
func newMISState(ctx context.Context, ov *overlay, ord core.Order, parents *core.Parents, grain int) (*misState, core.Stats, error) {
	res, err := core.PrefixMIS(ctx, ov.base, ord, core.Options{Options: engine.Options{Grain: grain}, Parents: parents})
	if err != nil {
		return nil, core.Stats{}, err
	}
	n := ov.n
	status := make([]int32, n)
	for v := 0; v < n; v++ {
		if res.InSet[v] {
			status[v] = statusIn
		} else {
			status[v] = statusOut
		}
	}
	ms := &misState{ord: ord, status: status, ov: ov}
	ms.shift = core.FrontierBucketShift(n, misFrontierBuckets)
	ms.buckets = ((n - 1) >> ms.shift) + 1
	if n == 0 {
		ms.buckets = 1
	}
	ms.fr.ensure(n)
	return ms, res.Stats, nil
}

// seedsFor collects the MIS repair seeds of a validated batch, applied
// against the PRE-repair statuses: for each changed edge {x, w} with x
// earlier, w is a seed exactly when status[x] == In — an inserted or
// deleted edge to an Out vertex cannot change w's decision (w's rule
// only asks "is any earlier neighbor In"), and if x itself flips later
// it necessarily enters the frontier, whose change-driven expansion
// reaches w through the (inserted) edge or re-derives w's independence
// from the (deleted) edge's absence.
func (ms *misState) seedsFor(batch []Update) []int32 {
	rank := ms.ord.Rank
	seeds := ms.seedBuf[:0]
	for _, up := range batch {
		x, w := up.U, up.V
		if rank[x] > rank[w] {
			x, w = w, x
		}
		if ms.status[x] == statusIn {
			seeds = append(seeds, w)
		}
	}
	ms.seedBuf = seeds
	return seeds
}

// repair re-resolves the damage region after the overlay has been
// mutated by the batch: it drains the frontier seeded by the directly
// perturbed vertices.
func (ms *misState) repair(ctx context.Context, batch []Update, grain int) (RepairCost, error) {
	return ms.fr.drain(ctx, ms, ms.status, ms.seedsFor(batch), ms.buckets, grain)
}

// key is vertex v's frontier bucket.
func (ms *misState) key(v int32) int { return int(ms.ord.Rank[v]) >> ms.shift }

// decide re-decides vertex v against its earlier neighbors. A settled
// earlier In neighbor rules it out without scanning the rest (the hub
// short-circuit: an unaffected high-degree vertex re-derives Out
// cheaply).
func (ms *misState) decide(v int32) (int32, int64) {
	rank := ms.ord.Rank
	rv := rank[v]
	pend := ms.fr.pend
	sawPending := false
	decision := statusIn
	var inspections int64
	ms.ov.visit(v, func(u int32) bool {
		if rank[u] >= rv {
			return true
		}
		inspections++
		if pend[u] {
			sawPending = true
			return true
		}
		if ms.status[u] == statusIn {
			decision = statusOut
			return false
		}
		return true
	})
	if decision == statusOut {
		return statusOut, inspections
	}
	if sawPending {
		return statusUndecided, inspections
	}
	return statusIn, inspections
}

// expand enqueues the later neighbors of flipped vertex v.
func (ms *misState) expand(v int32) {
	rank := ms.ord.Rank
	rv := rank[v]
	ms.ov.visit(v, func(u int32) bool {
		if rank[u] > rv {
			ms.fr.push(u, ms.key(u), ms.status[u])
		}
		return true
	})
}

// result builds the current MIS as a core.Result (Stats left zero: the
// per-batch costs live in RepairStats).
func (ms *misState) result() *core.Result {
	in, set := engine.Members(ms.status, nil)
	return &core.Result{InSet: in, Set: set}
}
