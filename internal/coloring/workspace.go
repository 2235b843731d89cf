package coloring

import "repro/internal/engine"

// Workspace holds the pooled per-run buffers of the coloring algorithms
// (the rank-indexed color array and the engine's window buffers),
// reused across runs on same-or-smaller inputs. Buffers are
// reinitialized at the start of every run, so results are bit-identical
// to runs on fresh memory; the Result's color array is copied out,
// never pooled. Not safe for concurrent use; the zero value is ready.
type Workspace struct {
	colors []int32
	eng    engine.Workspace
}
