package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/graph"
)

// seqCancelMask paces the cancellation checks of the sequential scans:
// ctx.Err() is consulted every seqCancelMask+1 iterations, so a
// cancelled context aborts within a few thousand O(1) iterations —
// well inside the issue-of-one-round bound the parallel loops honor.
const seqCancelMask = 1<<12 - 1

// SequentialMIS computes the lexicographically-first MIS of g under ord
// with the paper's Algorithm 1: scan vertices in priority order; add a
// vertex if it has not been removed; remove it and its neighbors.
// It runs in O(n + m) time and defines the answer every deterministic
// parallel algorithm in this package must reproduce.
//
// Stats: Rounds = Attempts = n (the paper's convention that a sequential
// implementation's work and round count both equal the input size);
// EdgeInspections counts the neighbor scans of accepted vertices.
//
// The priority scan checks ctx every few thousand vertices, so
// cancellation is honored promptly without slowing the O(n + m) loop
// measurably; the status array comes from opt.Workspace when set.
func SequentialMIS(ctx context.Context, g *graph.Graph, ord Order, opt Options) (*Result, error) {
	n := g.NumVertices()
	if ord.Len() != n {
		panic("core: order size does not match graph")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	status := engine.Grow32(&ws.status, n)
	engine.Fill32(status, statusUndecided)
	var inspections int64
	for r := 0; r < n; r++ {
		if r&seqCancelMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v := ord.Order[r]
		if status[v] != statusUndecided {
			continue
		}
		status[v] = statusIn
		nbrs := g.Neighbors(v)
		inspections += int64(len(nbrs))
		for _, u := range nbrs {
			if status[u] == statusUndecided {
				status[u] = statusOut
			}
		}
	}
	return newResult(status, nil, Stats{
		Rounds:          int64(n),
		Attempts:        int64(n),
		EdgeInspections: inspections,
	}), nil
}
