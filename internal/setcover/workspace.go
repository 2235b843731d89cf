package setcover

import "repro/internal/engine"

// Workspace holds the pooled per-run buffers of the hitting set
// algorithms (the rank-indexed element statuses and the engine's window
// buffers), reused across runs on same-or-smaller inputs. Buffers are
// reinitialized at the start of every run, so results are bit-identical
// to runs on fresh memory; Result arrays (InSet, Set) are never pooled.
// Not safe for concurrent use; the zero value is ready.
type Workspace struct {
	status []int32
	eng    engine.Workspace
}
