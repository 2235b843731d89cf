package core

import (
	"context"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// LubyMIS computes a maximal independent set with Luby's Algorithm A
// (SIAM J. Comput. 1986), the baseline the paper compares against in
// Figure 3. Each round every remaining vertex draws a fresh random
// priority; a vertex whose priority beats all remaining neighbors joins
// the MIS, and it and its neighbors leave the graph, which is then
// compacted. Regenerating priorities every round is exactly what
// distinguishes Luby from Algorithm 2 ("if Algorithm 2 regenerates the
// ordering pi randomly on each recursive call then the algorithm is
// effectively the same as Luby's Algorithm A"), and is why Luby's result
// differs from the sequential greedy MIS and why it performs more total
// work in practice — the effect the paper quantifies as its prefix-based
// algorithm being 4-8x faster.
//
// Fresh priorities come from a hash of (seed, round, vertex), so the
// result is deterministic in the seed even though it is not the
// lexicographically-first MIS. Ties are broken by vertex id; with 64-bit
// priorities they are vanishingly rare.
//
// ctx is checked once per round, and the status array comes from
// opt.Workspace when set. The per-round compacted subgraphs are still
// allocated fresh: they shrink geometrically, and pooling them would
// pin the largest round's footprint for the pool's lifetime.
func LubyMIS(ctx context.Context, g *graph.Graph, seed uint64, opt Options) (*Result, error) {
	n := g.NumVertices()
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	status := engine.Grow32(&ws.status, n)
	engine.Fill32(status, statusUndecided)

	// Current subgraph in CSR form over the live vertices. live holds
	// original vertex ids; adjacency stores original ids too, filtered
	// to live vertices at each compaction.
	live := make([]int32, n)
	offsets := make([]int64, n+1)
	var adj []int32
	{
		goffsets, gadj := g.Raw()
		copy(offsets, goffsets)
		adj = append([]int32(nil), gadj...)
		for i := range live {
			live[i] = int32(i)
		}
	}

	stats := Stats{}
	var inspections atomic.Int64
	var prevInspections int64

	for len(live) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		round := uint64(stats.Rounds)
		stats.Rounds++
		stats.Attempts += int64(len(live))

		prio := func(v int32) uint64 {
			return rng.Hash3(seed, round, uint64(v))
		}

		// Select local minima among live vertices.
		parallel.ForRange(len(live), opt.Grain, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				v := live[i]
				pv := prio(v)
				wins := true
				nbrs := adj[offsets[i]:offsets[i+1]]
				local += int64(len(nbrs))
				for _, u := range nbrs {
					pu := prio(u)
					if pu < pv || (pu == pv && u < v) {
						wins = false
						break
					}
				}
				if wins {
					atomic.StoreInt32(&status[v], statusIn)
				}
			}
			inspections.Add(local)
		})
		// Knock out neighbors of winners. A separate pass avoids
		// read/write races on status during selection.
		parallel.ForRange(len(live), opt.Grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := live[i]
				if atomic.LoadInt32(&status[v]) != statusIn {
					continue
				}
				for _, u := range adj[offsets[i]:offsets[i+1]] {
					atomic.CompareAndSwapInt32(&status[u], statusUndecided, statusOut)
				}
			}
		})

		// Compact the subgraph to the still-undecided vertices.
		liveIdx := parallel.PackIndex(len(live), opt.Grain, func(i int) bool {
			return status[live[i]] == statusUndecided
		})
		newLive := make([]int32, len(liveIdx))
		counts := make([]int64, len(liveIdx)+1)
		parallel.For(len(liveIdx), opt.Grain, func(i int) {
			oi := liveIdx[i]
			newLive[i] = live[oi]
			c := int64(0)
			for _, u := range adj[offsets[oi]:offsets[oi+1]] {
				if status[u] == statusUndecided {
					c++
				}
			}
			counts[i] = c
		})
		newOffsets := make([]int64, len(liveIdx)+1)
		total := parallel.ExclusiveScan(newOffsets[:len(liveIdx)], counts[:len(liveIdx)], opt.Grain)
		newOffsets[len(liveIdx)] = total
		newAdj := make([]int32, total)
		parallel.For(len(liveIdx), opt.Grain, func(i int) {
			oi := liveIdx[i]
			pos := newOffsets[i]
			for _, u := range adj[offsets[oi]:offsets[oi+1]] {
				if status[u] == statusUndecided {
					newAdj[pos] = u
					pos++
				}
			}
		})
		if opt.OnRound != nil {
			cur := inspections.Load()
			opt.OnRound(RoundStat{
				Round:           stats.Rounds,
				Attempted:       len(live),
				Accepted:        len(live) - len(newLive),
				EdgeInspections: cur - prevInspections,
			})
			prevInspections = cur
		}
		live, offsets, adj = newLive, newOffsets, newAdj
	}
	stats.EdgeInspections = inspections.Load()
	return newResult(status, nil, stats), nil
}
