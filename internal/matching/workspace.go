package matching

import (
	"repro/internal/engine"
	"repro/internal/graph"
)

// Workspace holds the pooled per-run buffers of the matching algorithms
// (rank-ordered edges when Options.Edges is nil, statuses, mates,
// reservations, frontier arrays), reused across runs on same-or-smaller
// inputs. Buffers are reinitialized at the start of every run, so
// results are bit-identical to runs on fresh memory; Result arrays are
// never pooled. Not safe for concurrent use; the zero value is ready.
type Workspace struct {
	edges   []graph.Edge
	status  []int32
	mate    []int32
	reserv  []int32 // doubles as vptr for RootSetMM
	claimed []int32
	stamp   []int32
	eng     engine.Workspace
}
