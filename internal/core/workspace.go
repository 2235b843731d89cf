package core

import "repro/internal/engine"

// Workspace holds the pooled per-run buffers of the MIS algorithms so a
// caller that computes many results (a solver facade, a serving worker)
// pays the allocations once and reuses them across runs on same-or-
// smaller inputs. Buffers are sized up lazily and reinitialized at the
// start of every run, so results are bit-identical to runs on fresh
// memory. Result arrays (InSet, Set) are never pooled: they are handed
// to the caller.
//
// A Workspace may be used by one run at a time; it is not safe for
// concurrent use. The zero value is ready to use.
type Workspace struct {
	status   []int32
	ptr      []int32
	claim    []int32
	children Parents // RootSetMIS's child lists, rebuilt every run
	eng      engine.Workspace
}
