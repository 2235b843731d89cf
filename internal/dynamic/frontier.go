package dynamic

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
)

// repairItems is what the frontier drain asks of a problem's repair
// state: MIS items are vertices, MM items are edge slots.
type repairItems interface {
	// key returns item's frontier bucket, monotone in the priority
	// order.
	key(item int32) int
	// decide re-decides item against its earlier neighbors and returns
	// its outcome and the earlier-neighbor status reads it made. A
	// settled earlier In neighbor rules it out, a pending earlier
	// neighbor stalls it (statusUndecided), and an all-settled, all-Out
	// earlier neighborhood admits it. The items of a round are decided
	// concurrently and read only state committed before the round.
	decide(item int32) (status int32, inspections int64)
	// expand pushes the later neighbors of item, whose status just
	// flipped.
	expand(item int32)
}

// frontier is the shared state of the change-driven repair: a monotone
// bucket queue over priority ranks plus epoch-stamped membership marks
// and a first-touch undo log. The MIS and MM states drain it the same
// way (see drain) and differ only in what an "item" and a "neighbor"
// are.
//
// All buffers persist across Apply calls on a session and grow with
// slack (the matching state's slot universe creeps upward one slot
// per net insertion), so steady-state repairs allocate nothing; ensure
// pre-sizes them at session creation so even the first Apply pays no
// universe-sized allocation.
type frontier struct {
	q core.FrontierQueue
	// pend[i] reports that i is enqueued awaiting (re-)decision: its
	// stored status must not be trusted, and deciding items stall on
	// pending earlier neighbors. Self-cleaning — a completed drain
	// settles every enqueued item — so no per-repair clear is needed.
	pend []bool
	// seen is the epoch stamp of the item's first touch in the current
	// repair; touched/old record those items and their pre-repair
	// statuses, which yields the Visited and Changed accounting.
	seen    []int32
	epoch   int32
	touched []int32
	old     []int32
	// pending is the live frontier size; peak its high-water mark.
	pending int
	peak    int

	active  []int32
	outcome []int32
}

// ensure grows the mark buffers (with slack) to cover items [0, n).
func (f *frontier) ensure(n int) {
	if len(f.seen) >= n {
		return
	}
	grown := n + n/2 + 64
	f.seen = make([]int32, grown)
	f.pend = make([]bool, grown)
	f.epoch = 0
}

// begin prepares the scratch for one repair over a universe of n items
// bucketed into numBuckets priority buckets.
func (f *frontier) begin(n, numBuckets int) {
	f.ensure(n)
	if f.epoch == 1<<31-1 {
		for i := range f.seen {
			f.seen[i] = 0
		}
		f.epoch = 0
	}
	f.epoch++
	f.q.Reset(numBuckets)
	f.touched = f.touched[:0]
	f.old = f.old[:0]
	f.pending, f.peak = 0, 0
}

// push enqueues item into bucket key unless it is already pending,
// recording its current (pre-repair, for a first touch) status in the
// undo log. Re-pushing an item the drain already settled is legal and
// re-decides it — the rare case where an earlier same-bucket item
// flipped only after the item was first decided.
func (f *frontier) push(item int32, key int, status int32) {
	if f.pend[item] {
		return
	}
	if f.seen[item] != f.epoch {
		f.seen[item] = f.epoch
		f.touched = append(f.touched, item)
		f.old = append(f.old, status)
	}
	f.pend[item] = true
	f.q.Push(item, key)
	f.pending++
	if f.pending > f.peak {
		f.peak = f.pending
	}
}

// drain re-decides the seeds, and every item their flips reach, in
// priority order, and returns the repair's cost. status is the live
// status array of the item universe, bucketed by it.key into
// numBuckets buckets. Each popped bucket is decided in two-phase
// check/commit rounds: an item stalls while an earlier neighbor is
// pending, and only an item whose status flipped expands to its later
// neighbors, which re-enqueues any of them decided too early. So the
// final state is bit-identical to the sequential greedy on the mutated
// graph no matter how priorities fall into buckets. ctx is checked
// once per round; a cancellation error leaves the state inconsistent
// and the caller must mark the maintainer broken.
func (f *frontier) drain(ctx context.Context, it repairItems, status, seeds []int32, numBuckets, grain int) (RepairCost, error) {
	cost := RepairCost{Seeds: len(seeds)}
	if len(seeds) == 0 {
		return cost, nil
	}
	f.begin(len(status), numBuckets)
	for _, s := range seeds {
		f.push(s, it.key(s), status[s])
	}
	// The decide rounds share one team, and their body is built once
	// here over the current round's active and outcome.
	team := parallel.NewTeam()
	defer team.Close()
	var inspections atomic.Int64
	active := f.active[:0]
	var outcome []int32
	decide := func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			var insp int64
			outcome[i], insp = it.decide(active[i])
			local += insp
		}
		inspections.Add(local)
	}
	for {
		var ok bool
		active, _, ok = f.q.PopBucket(active[:0])
		if !ok {
			break
		}
		for len(active) > 0 {
			if err := ctx.Err(); err != nil {
				f.active = active
				return cost, err
			}
			outcome = engine.Grow32(&f.outcome, len(active))
			// Check phase: reads only statuses and pending marks
			// committed before this round.
			team.ForRange(len(active), grain, decide)
			// Commit phase: settle decided items, expand flips, and
			// compact the undecided ones, in order, to the front.
			// Sequential — the push bookkeeping is cheap next to the
			// parallel checks, and its order fixes the counters
			// machine-independently.
			kept := 0
			for i, x := range active {
				if outcome[i] == statusUndecided {
					active[kept] = x
					kept++
					continue
				}
				f.pend[x] = false
				f.pending--
				if status[x] != outcome[i] {
					status[x] = outcome[i]
					cost.Flipped++
					it.expand(x)
				}
			}
			cost.Rounds++
			cost.Attempts += int64(len(active))
			// Same-bucket pushes join the next round.
			active = f.q.TakeCurrent(active[:kept])
		}
	}
	f.active = active
	cost.Inspections = inspections.Load()
	// Visited is the number of distinct items the frontier touched, and
	// Changed the touched items whose final status differs from their
	// pre-repair one.
	cost.Visited = len(f.touched)
	cost.FrontierPeak = f.peak
	for i, x := range f.touched {
		if status[x] != f.old[i] {
			cost.Changed++
		}
	}
	return cost, nil
}
