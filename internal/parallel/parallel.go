// Package parallel provides the fork-join primitives used throughout the
// reproduction of Blelloch, Fineman and Shun (SPAA 2012): parallel loops
// with an explicit grain size, reductions, blocked prefix sums (scan),
// pack, and atomic write-min.
//
// The paper's implementation runs on the cilk++ work-stealing runtime
// with a loop grain size of 256; this package plays the same role on top
// of goroutines. A loop shards its index space into grain-aligned chunks
// that the calling goroutine and p−1 helpers claim through an atomic
// counter, which gives dynamic load balancing similar in spirit to work
// stealing at a far lower implementation cost. A Team keeps its helpers
// resident across fork-joins — they spin briefly between two and then
// park — so a round loop pays one goroutine start per helper per loop,
// not per round; the package-level loops are one-shot uses of a Team.
// A caller that runs out of chunks while a helper is still in one
// polls briefly and then blocks until the helper leaves, so a helper
// whose thread lost its processor mid-chunk does not keep the caller
// spinning on a machine it shares.
// All primitives degrade to plain sequential loops when the input is
// below the grain size or when GOMAXPROCS is 1, so small inputs pay no
// synchronization cost — the property responsible for the "bump" the
// paper observes when the prefix size crosses the sequential-to-parallel
// loop threshold.
package parallel

import (
	"runtime"
	"sync"
)

// DefaultGrain is the default minimum number of loop iterations executed
// by one task. It matches the grain size of 256 used by the paper's
// cilk++ implementation ("we used a grain size of 256 for our loops").
const DefaultGrain = 256

// Procs returns the current effective parallelism (GOMAXPROCS).
func Procs() int {
	return runtime.GOMAXPROCS(0)
}

// ForRange runs body over the half-open range [0, n) split into chunks of
// at least grain iterations. body is called with disjoint sub-ranges
// [lo, hi) that together cover [0, n) exactly once. If grain <= 0,
// DefaultGrain is used. The call returns after all chunks complete; it
// establishes a happens-before edge between the loop body and the caller.
// It is a one-shot use of a Team: the caller claims chunks alongside
// p−1 helpers, which exit before ForRange returns. A loop that makes
// many fork-joins should keep one Team for all of them instead.
func ForRange(n, grain int, body func(lo, hi int)) {
	t := NewTeam()
	t.ForRange(n, grain, body)
	t.Close()
}

// For runs body(i) for every i in [0, n) in parallel with the given grain
// size. It is a convenience wrapper over ForRange.
func For(n, grain int, body func(i int)) {
	ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Do runs every function in fns, possibly in parallel, and waits for all
// of them. It is the binary/n-ary fork-join primitive ("spawn/sync").
func Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	if Procs() == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[1:] {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	fns[0]()
	wg.Wait()
}

// Reduce combines leaf results over [0, n) with an associative combine
// function. leaf computes the reduction of a sub-range; combine merges
// two partial results. identity must be a left and right identity of
// combine. The reduction order is deterministic: partial results are
// combined in increasing chunk order regardless of execution
// interleaving, so non-commutative (but associative) combines are safe.
func Reduce[T any](n, grain int, identity T, leaf func(lo, hi int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return identity
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if Procs() == 1 || n <= grain {
		return combine(identity, leaf(0, n))
	}
	chunks := (n + grain - 1) / grain
	parts := make([]T, chunks)
	ForRange(n, grain, func(lo, hi int) {
		// Chunk boundaries produced by ForRange are aligned to grain, so
		// lo/grain identifies the chunk index deterministically.
		parts[lo/grain] = leaf(lo, hi)
	})
	acc := identity
	for _, p := range parts {
		acc = combine(acc, p)
	}
	return acc
}

// MaxInt64 returns the maximum of f(i) for i in [0, n), or identity if
// n <= 0.
func MaxInt64(n, grain int, identity int64, f func(i int) int64) int64 {
	return Reduce(n, grain, identity, func(lo, hi int) int64 {
		m := identity
		for i := lo; i < hi; i++ {
			if v := f(i); v > m {
				m = v
			}
		}
		return m
	}, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// ForBlocks runs body(b, lo, hi) for every block b of [0, n) split into
// blocks of block > 0 iterations, block b being [b·block,
// min((b+1)·block, n)), in parallel. Unlike ForRange's chunks, the
// blocks do not depend on the processor count, so b can index
// per-block state that a later loop over the same blocks reads back.
func ForBlocks(n, block int, body func(b, lo, hi int)) {
	ForRange(n, block, func(lo, hi int) {
		for ; lo < hi; lo += block {
			body(lo/block, lo, min(lo+block, hi))
		}
	})
}
