package matching

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// seqCancelMask paces the sequential scan's cancellation checks, as in
// core.SequentialMIS.
const seqCancelMask = 1<<12 - 1

// SequentialMM computes the greedy maximal matching of el under ord: it
// scans edges in priority order and keeps an edge exactly when both of
// its endpoints are still free. This is the paper's linear-time
// sequential algorithm whose output — the lexicographically-first
// matching — every parallel implementation in this package reproduces.
//
// Stats follow the paper's convention: Rounds = Attempts = m for a
// sequential run; EdgeInspections counts the two endpoint examinations
// per edge.
// ctx is checked every few thousand edges, and buffers come from
// opt.Workspace when set.
func SequentialMM(ctx context.Context, el graph.EdgeList, ord core.Order, opt Options) (*Result, error) {
	m := el.NumEdges()
	if ord.Len() != m {
		panic("matching: order size does not match edge list")
	}
	ws := opt.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	status := engine.Grow32(&ws.status, m)
	engine.Fill32(status, statusUndecided)
	mate := engine.Grow32(&ws.mate, el.N)
	engine.Fill32(mate, unmatched)
	var inspections int64
	for r := 0; r < m; r++ {
		if r&seqCancelMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := ord.Order[r]
		edge := el.Edges[e]
		inspections += 2
		if mate[edge.U] == unmatched && mate[edge.V] == unmatched {
			status[e] = statusIn
			mate[edge.U] = edge.V
			mate[edge.V] = edge.U
		} else {
			status[e] = statusOut
		}
	}
	return newResult(el, status, Stats{
		Rounds:          int64(m),
		Attempts:        int64(m),
		EdgeInspections: inspections,
	}), nil
}
