// Package core implements the paper's primary contribution for maximal
// independent set: the sequential greedy algorithm (Algorithm 1), its
// trivial parallelization (Algorithm 2), the linear-work root-set
// implementation (Lemma 4.2), the prefix-based algorithm used in the
// paper's experiments (Algorithm 3 / Theorem 4.5), Luby's Algorithm A as
// the baseline, and analyzers for the priority-DAG quantities the
// theory section bounds (dependence length, longest paths in prefixes,
// degree reduction).
//
// All deterministic algorithms are parameterized by an Order (a
// permutation of the vertices, the paper's pi). For a fixed order they
// return bit-identical results — the lexicographically-first MIS —
// regardless of the number of threads or the prefix size. Luby's
// algorithm intentionally does not share this property: it regenerates
// priorities every round.
package core

import (
	"fmt"

	"repro/internal/rng"
)

// Order is a total priority order over n items (vertices here; the
// matching package reuses it for edges). Order[r] is the item with rank
// r and Rank[v] is the rank of item v; rank 0 is the earliest (highest
// priority). The two arrays are inverse permutations of each other.
type Order struct {
	Order []int32
	Rank  []int32
}

// NewRandomOrder returns a uniformly random Order on n items,
// deterministic in (n, seed).
func NewRandomOrder(n int, seed uint64) Order {
	ord := rng.Perm(n, seed)
	return Order{Order: ord, Rank: rng.InversePerm(ord)}
}

// IdentityOrder returns the order in which item i has rank i. Greedy MIS
// under the identity order on adversarial inputs is the P-complete
// lexicographically-first MIS instance; it is useful in tests to build
// worst-case dependence chains.
func IdentityOrder(n int) Order {
	id := rng.Identity(n)
	return Order{Order: id, Rank: rng.Identity(n)}
}

// FromOrder builds an Order from an explicit permutation giving the item
// at each rank. It panics if order is not a permutation.
func FromOrder(order []int32) Order {
	if !rng.IsPerm(order) {
		panic("core: FromOrder argument is not a permutation")
	}
	o := append([]int32(nil), order...)
	return Order{Order: o, Rank: rng.InversePerm(o)}
}

// Len returns the number of items ordered.
func (o Order) Len() int { return len(o.Order) }

// Validate checks that Order and Rank are mutually inverse permutations.
func (o Order) Validate() error {
	if len(o.Order) != len(o.Rank) {
		return fmt.Errorf("core: order/rank length mismatch %d vs %d", len(o.Order), len(o.Rank))
	}
	if !rng.IsPerm(o.Order) {
		return fmt.Errorf("core: order is not a permutation")
	}
	for r, v := range o.Order {
		if o.Rank[v] != int32(r) {
			return fmt.Errorf("core: rank[%d] = %d, want %d", v, o.Rank[v], r)
		}
	}
	return nil
}
