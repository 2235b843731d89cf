// Package setcover implements greedy hitting set (equivalently, set
// cover over the dual) as a problem on the shared speculative-prefix
// engine (internal/engine): elements are scanned in priority order and
// an element joins the hitting set exactly when some set containing it
// is not yet hit — the classical greedy that underlies the
// element-priority parallel algorithms of Blelloch, Peng and
// Simhadri-style derandomized selection. For a fixed order the parallel
// algorithm returns exactly the sequential greedy hitting set at any
// prefix size, grain and thread count.
//
// The graph problems are special cases: with every edge a two-element
// set over its endpoints, the greedy hitting set is the greedy vertex
// cover of the graph under the vertex order.
package setcover

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// System is an immutable set system in dual CSR form: for each element
// the sets containing it, and for each set the elements it contains.
// Use FromSets or FromEdges to construct one.
type System struct {
	numElements int
	numSets     int
	elemOff     []int64 // len numElements+1; delimits elemSets
	elemSets    []int32 // concatenated set ids per element
	setOff      []int64 // len numSets+1; delimits setElems
	setElems    []int32 // concatenated element ids per set
}

// FromSets builds a System over numElements elements from the given
// sets (each a list of element ids). Element ids must lie in
// [0, numElements); duplicate ids within a set are allowed and kept
// (they only cost redundant inspections). Empty sets are allowed: they
// can never be hit and are ignored by the greedy rule and the verifier.
func FromSets(numElements int, sets [][]int32) (*System, error) {
	if numElements < 0 {
		return nil, fmt.Errorf("setcover: negative element count %d", numElements)
	}
	s := &System{
		numElements: numElements,
		numSets:     len(sets),
		elemOff:     make([]int64, numElements+1),
		setOff:      make([]int64, len(sets)+1),
	}
	total := 0
	for i, set := range sets {
		for _, e := range set {
			if e < 0 || int(e) >= numElements {
				return nil, fmt.Errorf("setcover: set %d contains element %d out of range [0,%d)", i, e, numElements)
			}
			s.elemOff[e+1]++
		}
		total += len(set)
		s.setOff[i+1] = s.setOff[i] + int64(len(set))
	}
	for e := 0; e < numElements; e++ {
		s.elemOff[e+1] += s.elemOff[e]
	}
	s.setElems = make([]int32, total)
	s.elemSets = make([]int32, total)
	cursor := make([]int64, numElements)
	for i, set := range sets {
		copy(s.setElems[s.setOff[i]:], set)
		for _, e := range set {
			s.elemSets[s.elemOff[e]+cursor[e]] = int32(i)
			cursor[e]++
		}
	}
	return s, nil
}

// MustFromSets is FromSets, panicking on invalid input.
func MustFromSets(numElements int, sets [][]int32) *System {
	s, err := FromSets(numElements, sets)
	if err != nil {
		panic(err)
	}
	return s
}

// FromEdges builds the vertex-cover system of an edge list: one
// two-element set {U,V} per edge, over the vertices as elements. The
// greedy hitting set of this system is the greedy vertex cover of the
// graph. The element side is the edge list's incidence.
func FromEdges(el graph.EdgeList) *System {
	m := el.NumEdges()
	inc := graph.BuildIncidence(el)
	s := &System{
		numElements: el.N,
		numSets:     m,
		elemOff:     inc.Offsets,
		elemSets:    inc.EdgeIDs,
		setOff:      make([]int64, m+1),
		setElems:    make([]int32, 2*m),
	}
	parallel.ForRange(m, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			s.setOff[i+1] = int64(2 * (i + 1))
			s.setElems[2*i] = e.U
			s.setElems[2*i+1] = e.V
		}
	})
	return s
}

// Bytes returns the size of s's arrays in bytes.
func (s *System) Bytes() int64 {
	return 8*int64(len(s.elemOff)+len(s.setOff)) + 4*int64(len(s.elemSets)+len(s.setElems))
}

// NumElements returns the number of elements in the universe.
func (s *System) NumElements() int { return s.numElements }

// NumSets returns the number of sets.
func (s *System) NumSets() int { return s.numSets }

// SetsOf returns the ids of the sets containing element e.
func (s *System) SetsOf(e int32) []int32 {
	return s.elemSets[s.elemOff[e]:s.elemOff[e+1]]
}

// ElemsOf returns the element ids of set id.
func (s *System) ElemsOf(id int32) []int32 {
	return s.setElems[s.setOff[id]:s.setOff[id+1]]
}

// Verify checks that inSet is a hitting set of s: every nonempty set
// contains a chosen element. It returns nil on success and a
// descriptive error on the first unhit set.
func (s *System) Verify(inSet []bool) error {
	if len(inSet) != s.numElements {
		return fmt.Errorf("setcover: %d membership bits for %d elements", len(inSet), s.numElements)
	}
	for id := 0; id < s.numSets; id++ {
		elems := s.ElemsOf(int32(id))
		if len(elems) == 0 {
			continue
		}
		hit := false
		for _, e := range elems {
			if inSet[e] {
				hit = true
				break
			}
		}
		if !hit {
			return fmt.Errorf("setcover: set %d not hit", id)
		}
	}
	return nil
}
