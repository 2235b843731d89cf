package spanning

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/unionfind"
)

// Workspace holds the pooled per-run buffers of the spanning-forest
// algorithms (reservations, root snapshots, and the concurrent
// union-find), reused across runs on same-or-smaller inputs. Buffers
// are reinitialized at the start of every run, or (the root snapshots)
// written before every read, so results are bit-identical to runs on
// fresh memory; Result arrays (InForest, Edges) are never pooled. Not safe for concurrent use; the zero value
// is ready.
type Workspace struct {
	reserv []int32
	rootA  []int32 // child/rootU snapshot
	rootB  []int32 // target/rootV snapshot
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

// Pooled-buffer helpers shared with the other algorithm packages.
var (
	grow32 = core.Grow32
	fill32 = core.Fill32
)
