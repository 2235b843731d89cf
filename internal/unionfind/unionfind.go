// Package unionfind provides disjoint-set (union-find) structures: a
// classic sequential implementation with union by size and path
// compression, and a concurrent one with atomic path-halving finds and
// deterministic link direction, used by the spanning-forest extension
// (the paper's §7 suggests applying its prefix technique to greedy
// spanning forest, whose sequential algorithm is union-find over a
// random edge order).
package unionfind

import "sync/atomic"

// DSU is a sequential disjoint-set structure with union by size and
// full path compression; amortized near-constant operations.
type DSU struct {
	parent []int32
	size   []int32
}

// NewDSU returns a DSU over n singleton elements.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int32) int32 {
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root {
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

// Union merges the sets of x and y and reports whether they were
// previously distinct.
func (d *DSU) Union(x, y int32) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.size[rx] < d.size[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = rx
	d.size[rx] += d.size[ry]
	return true
}

// Components returns the number of disjoint sets.
func (d *DSU) Components() int {
	c := 0
	for i := range d.parent {
		if d.Find(int32(i)) == int32(i) {
			c++
		}
	}
	return c
}

// Concurrent is a disjoint-set structure safe for concurrent Find and
// for the restricted link discipline used by deterministic reservations:
// within a round, Link is called only on roots that a reservation
// protocol has assigned to exactly one caller, so parent writes never
// race. Find uses lock-free path halving (CAS) and may be called
// concurrently with Links; a stale answer from a racing Find is
// acceptable to the callers, which re-validate through reservations.
type Concurrent struct {
	parent []int32
}

// NewConcurrent returns a concurrent DSU over n singleton elements.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{}
	c.Reset(n)
	return c
}

// Reset reinitializes c to n singleton elements, reusing the backing
// array when it is large enough. It lets per-run workspaces pool the
// structure across runs; callers must be quiescent.
func (c *Concurrent) Reset(n int) {
	if cap(c.parent) < n {
		c.parent = make([]int32, n)
	}
	c.parent = c.parent[:n]
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
}

// Find returns the current representative of x, compressing the path by
// halving with CAS writes that can only move pointers closer to a root.
func (c *Concurrent) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&c.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&c.parent[p])
		if gp == p {
			return p
		}
		// Path halving: point x at its grandparent. Failure just means
		// someone else improved the path first.
		atomic.CompareAndSwapInt32(&c.parent[x], p, gp)
		x = gp
	}
}

// Link makes child point at parent. child must currently be a root that
// the caller has exclusive rights to (e.g. by holding a reservation);
// linking a non-root or racing on the same child corrupts the forest.
func (c *Concurrent) Link(child, parent int32) {
	atomic.StoreInt32(&c.parent[child], parent)
}

// Components returns the number of roots; call only in quiescent states.
func (c *Concurrent) Components() int {
	count := 0
	for i := range c.parent {
		if c.Find(int32(i)) == int32(i) {
			count++
		}
	}
	return count
}
