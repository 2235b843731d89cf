package setcover

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
)

// inlineMax is the largest set whose members' earlier elements a Layout
// stores inline. A member of a larger set gets a one-word reference to
// the set instead, which its check scans with a rank filter: inlining
// a k-member set would cost up to k-1 words for each of its k members,
// quadratic in k, while the cap keeps every membership to at most
// inlineMax words, O(Σ|S|) in all.
const inlineMax = 8

// Layout is the hitting-set check's input in rank space: each element's
// sets, partitioned into earlier and later members, under one order —
// the set-system counterpart of core.Parents.
//
// Row r belongs to the element of rank r (ord.Order[r]) and holds one
// group per set containing it, in SetsOf order. A group is a length
// word followed by the ranks of the set's earlier members in ElemsOf
// order, so scanning it inspects exactly the elements, in exactly the
// order, that a rank-filtered scan of the set would. A set with more
// than inlineMax members is a single word -(id+1) instead, a reference
// the check resolves through System.ElemsOf with that rank filter. A
// row ends after its first empty group: a set with no earlier member is
// certainly unhit at the element's sequential turn, so the check
// decides there and never reads further.
//
// A Layout depends only on the system and the order, so a caller that
// solves the same (system, order) pair repeatedly builds it once and
// passes it through Options.Layout. The zero value is empty; Build
// fills it.
type Layout struct {
	offsets []int64
	words   []int32
}

// BuildLayout returns the layout of s under ord, built in O(Σ|S|) work.
func BuildLayout(s *System, ord core.Order) *Layout {
	l := new(Layout)
	l.Build(s, ord)
	return l
}

// Build recomputes l as the layout of s under ord, reusing l's buffers
// when their capacity suffices: a counting pass, an in-place scan of
// the counts into offsets, and a filling pass. Both passes walk the
// elements in id order and write each element's row at its rank, which
// costs less than reading the elements in rank order.
func (l *Layout) Build(s *System, ord core.Order) {
	n := s.NumElements()
	if cap(l.offsets) < n+1 {
		l.offsets = make([]int64, n+1)
	}
	l.offsets = l.offsets[:n+1]
	offsets := l.offsets
	rank := ord.Rank
	parallel.For(n, 1024, func(e int) {
		offsets[rank[e]] = int64(emitRow(s, rank, int32(e), nil))
	})
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 1024)
	offsets[n] = total
	words := engine.Grow32(&l.words, int(total))
	parallel.For(n, 1024, func(e int) {
		r := rank[e]
		emitRow(s, rank, int32(e), words[offsets[r]:offsets[r+1]])
	})
}

// row returns row r. The slice aliases l's storage.
func (l *Layout) row(r int32) []int32 {
	return l.words[l.offsets[r]:l.offsets[r+1]]
}

// emitRow writes element e's row into dst and returns its length in
// words; with dst nil it only counts.
func emitRow(s *System, rank []int32, e int32, dst []int32) int {
	r := rank[e]
	w := 0
	for _, id := range s.SetsOf(e) {
		elems := s.ElemsOf(id)
		if len(elems) > inlineMax {
			if dst != nil {
				dst[w] = -id - 1
			}
			w++
			continue
		}
		head := w
		w++
		for _, x := range elems {
			if rx := rank[x]; rx < r {
				if dst != nil {
					dst[w] = rx
				}
				w++
			}
		}
		if dst != nil {
			dst[head] = int32(w - head - 1)
		}
		if w == head+1 {
			break // an empty group decides the element
		}
	}
	return w
}
