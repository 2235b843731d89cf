package engine

import "context"

// A Decider supplies the sequential step of a problem: Decide(r)
// decides rank r, given that every earlier rank is final, and writes
// the decision into the problem's state. It returns the inspections it
// made. A problem package implements it on the same adapter it hands
// Run, through the same decision its Check calls, so the sequential
// algorithm and the prefix algorithm share one decision per problem
// and differ only in the schedule.
type Decider interface {
	Decide(r int32) int64
}

// scanCancelMask paces Scan's cancellation checks: ctx.Err() is
// consulted every scanCancelMask+1 ranks, so a cancelled context
// aborts within a few thousand O(1)-expected decisions.
const scanCancelMask = 1<<12 - 1

// Scan runs the paper's sequential algorithm (Algorithm 1 for MIS) over
// the n ranks 0..n-1: each rank in order, decided once by p. It is the
// prefix loop at prefix size 1 without the window machinery. The
// counters follow the paper's convention that a sequential run's work
// and round count both equal the input size: Rounds = Attempts = n,
// PrefixSize 0, and EdgeInspections the sum of what p's decisions read.
// A cancelled ctx returns ctx.Err() within 4,096 ranks.
func Scan(ctx context.Context, n int, p Decider) (Stats, error) {
	var inspections int64
	for r := 0; r < n; r++ {
		if r&scanCancelMask == 0 {
			if err := ctx.Err(); err != nil {
				return Stats{}, err
			}
		}
		inspections += p.Decide(int32(r))
	}
	return Stats{Rounds: int64(n), Attempts: int64(n), EdgeInspections: inspections}, nil
}
