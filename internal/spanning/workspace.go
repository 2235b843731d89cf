package spanning

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// Workspace holds the pooled per-run buffers of the spanning-forest
// algorithms (rank-ordered edges when Options.Edges is nil, the prefix
// runs' per-slot root snapshots, reservations, and the concurrent
// union-find), reused across runs on same-or-smaller inputs. Buffers
// are reinitialized at the start of every run, so results are
// bit-identical to runs on fresh memory; Result arrays (InForest,
// Edges) are never pooled. Not safe for concurrent use; the zero value
// is ready.
type Workspace struct {
	edges  []graph.Edge
	roots  []graph.Edge
	reserv []int32
	dsu    *unionfind.Concurrent
	eng    engine.Workspace
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
