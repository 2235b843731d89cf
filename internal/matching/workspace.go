package matching

import (
	"repro/internal/engine"
	"repro/internal/graph"
)

// Workspace holds the pooled per-run buffers of the matching algorithms
// (rank-ordered edges, statuses, mates, reservations, frontier arrays),
// reused across runs on same-or-smaller inputs. Buffers are
// reinitialized at the start of every run, so results are bit-identical
// to runs on fresh memory; Result arrays are never pooled. Not safe for
// concurrent use; the zero value is ready.
type Workspace struct {
	// Edges, if non-nil, is the buffer every matching run gathers the
	// rank-ordered edges into, instead of the workspace's own; pointing
	// several workspaces at one buffer shares it between problems.
	// Every run regathers it.
	Edges *[]graph.Edge

	edges   []graph.Edge
	status  []int32
	mate    []int32
	reserv  []int32 // doubles as vptr for RootSetMM
	claimed []int32
	stamp   []int32
	eng     engine.Workspace
}

// edgeBuf returns the buffer the rank-ordered edges go into.
func (w *Workspace) edgeBuf() *[]graph.Edge {
	if w.Edges != nil {
		return w.Edges
	}
	return &w.edges
}
