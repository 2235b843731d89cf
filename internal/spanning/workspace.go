package spanning

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// Workspace holds the pooled per-run buffers of the spanning-forest
// algorithms (rank-ordered edges, which double as the root snapshots,
// reservations, and the concurrent union-find), reused across runs on
// same-or-smaller inputs. Buffers are reinitialized at the start of
// every run, so results are bit-identical to runs on fresh memory;
// Result arrays (InForest, Edges) are never pooled. Not safe for
// concurrent use; the zero value is ready.
type Workspace struct {
	// Edges, if non-nil, is the buffer the prefix runs gather the
	// rank-ordered edges into, instead of the workspace's own; pointing
	// several workspaces at one buffer shares it between problems.
	// Every run regathers it (and overwrites it with root snapshots).
	Edges *[]graph.Edge

	edges  []graph.Edge
	reserv []int32
	dsu    *unionfind.Concurrent
	eng    engine.Workspace
}

// edgeBuf returns the buffer the rank-ordered edges go into.
func (w *Workspace) edgeBuf() *[]graph.Edge {
	if w.Edges != nil {
		return w.Edges
	}
	return &w.edges
}

// freshDSU returns the pooled union-find reset over n elements.
func (w *Workspace) freshDSU(n int) *unionfind.Concurrent {
	if w.dsu == nil {
		w.dsu = unionfind.NewConcurrent(n)
	} else {
		w.dsu.Reset(n)
	}
	return w.dsu
}
