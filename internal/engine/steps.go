package engine

import (
	"context"

	"repro/internal/parallel"
)

// A Stepper supplies the root-set schedule's decisions. Root reports
// whether rank r is in the first frontier. Accept puts frontier rank r
// in the solution and appends to killed one entry per item it rules
// out. Expose checks such an entry k in step step (from 0), appending
// the ranks it finds ready to found and the writes the step's other
// checks must not see to deferred; Settle publishes a chunk's deferred
// writes after every Expose of the step. Accept and Expose run
// concurrently and return their inspections; an item two of them reach
// is claimed through an atomic, so no count depends on the schedule.
type Stepper interface {
	Root(r int32) bool
	Accept(r int32, killed []int32) ([]int32, int64)
	Expose(k, step int32, found, deferred []int32) ([]int32, []int32, int64)
	Settle(deferred []int32)
}

// stepChunk is one grain-aligned chunk of a step's frontier, padded so
// that neighbouring chunks' writes do not contend.
type stepChunk struct {
	hi                      int
	inspections             int64
	killed, found, deferred []int32
	_                       [128 - 88]byte
}

// Steps runs the root-set schedule over the ranks 0..n-1 until all are
// decided. A step accepts the frontier in one fork-join and exposes what
// that killed in a second, cut alike on one Team for the whole run; it
// then settles each chunk's deferred writes and concatenates the
// chunks' found ranks, in chunk order, into the next frontier. The
// merges follow each chunk's recorded end: with one chunk (one
// processor, or one grain) the other slots are stale. Rounds counts the
// steps, Attempts the frontier ranks, RoundStat.Accepted the frontier
// and its kills. ctx is checked once per step. ws supplies the frontier
// pair and the chunk slots; the window knobs and Clock do not apply.
func Steps(ctx context.Context, n int, p Stepper, opt Options, ws *Workspace) (Stats, error) {
	grain := opt.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}
	// No frontier outgrows the n ranks the roots are drawn from.
	slots := growChunks(&ws.steps, (n+grain-1)/grain)
	frontier, next := ws.active[:0], ws.next[:0]
	defer func() { ws.active, ws.next = frontier[:0], next[:0] }()
	team := parallel.NewTeam()
	defer team.Close()

	var stats Stats
	accept := func(lo, hi int) {
		c := &slots[lo/grain]
		killed, insp := c.killed[:0], int64(0)
		for _, r := range frontier[lo:hi] {
			var k int64
			killed, k = p.Accept(r, killed)
			insp += k
		}
		c.hi, c.killed, c.inspections = hi, killed, insp
	}
	expose := func(lo, hi int) {
		c := &slots[lo/grain]
		found, deferred, insp := c.found[:0], c.deferred[:0], c.inspections
		for _, k := range c.killed {
			var e int64
			found, deferred, e = p.Expose(k, int32(stats.Rounds), found, deferred)
			insp += e
		}
		c.found, c.deferred, c.inspections = found, deferred, insp
	}

	team.ForRange(n, grain, func(lo, hi int) {
		c := &slots[lo/grain]
		found := c.found[:0]
		for r := int32(lo); r < int32(hi); r++ {
			if p.Root(r) {
				found = append(found, r)
			}
		}
		c.hi, c.found = hi, found
	})
	for lo := 0; lo < n; lo = slots[lo/grain].hi {
		frontier = append(frontier, slots[lo/grain].found...)
	}
	for decided := 0; decided < n; {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if len(frontier) == 0 {
			panic("engine: Steps frontier empty with undecided ranks")
		}
		team.ForRange(len(frontier), grain, accept)
		team.ForRange(len(frontier), grain, expose)
		round := RoundStat{Round: stats.Rounds + 1, Attempted: len(frontier), Accepted: len(frontier)}
		next = next[:0]
		for lo := 0; lo < len(frontier); lo = slots[lo/grain].hi {
			c := &slots[lo/grain]
			round.Accepted += len(c.killed)
			round.EdgeInspections += c.inspections
			p.Settle(c.deferred)
			next = append(next, c.found...)
		}
		decided += round.Accepted
		stats.Rounds++
		stats.Attempts += int64(len(frontier))
		stats.EdgeInspections += round.EdgeInspections
		if opt.OnRound != nil {
			opt.OnRound(round)
		}
		frontier, next = next, frontier
	}
	return stats, nil
}
