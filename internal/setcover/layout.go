package setcover

import (
	"slices"

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
// when their capacity suffices. One pass walks the elements in id
// order, in blocks of layoutBlock: it appends each element's row to its
// block's scratch and records the row's length at the element's rank.
// An in-place scan turns the lengths into offsets, and a copying pass
// moves each row to its place. Only the first pass reads the sets and
// the ranks of their members; writing each row at its rank costs less
// than reading the elements in rank order would.
func (l *Layout) Build(s *System, ord core.Order) {
	n := s.NumElements()
	if cap(l.offsets) < n+1 {
		l.offsets = make([]int64, n+1)
	}
	l.offsets = l.offsets[:n+1]
	offsets := l.offsets
	rank := ord.Rank
	rows := make([][]int32, (n+layoutBlock-1)/layoutBlock)
	parallel.ForBlocks(n, layoutBlock, func(b, lo, hi int) {
		// A row ends at its first set with no earlier member, so the
		// vertex-cover systems of random and rMat graphs need about
		// half a word per membership; a block that needs more grows its
		// scratch.
		dst := make([]int32, 0, s.elemOff[hi]-s.elemOff[lo])
		for e := lo; e < hi; e++ {
			k := len(dst)
			dst = appendRow(dst, s, rank, int32(e))
			offsets[rank[e]] = int64(len(dst) - k)
		}
		rows[b] = dst
	})
	total := parallel.ExclusiveScan(offsets[:n], offsets[:n], 1024)
	offsets[n] = total
	words := engine.Grow32(&l.words, int(total))
	parallel.ForBlocks(n, layoutBlock, func(b, lo, hi int) {
		src := rows[b]
		for e := lo; e < hi; e++ {
			r := rank[e]
			src = src[copy(words[offsets[r]:offsets[r+1]], src):]
		}
	})
}

// layoutBlock is the number of elements whose rows share one scratch
// buffer in Build.
const layoutBlock = 1024

// row returns row r. The slice aliases l's storage.
func (l *Layout) row(r int32) []int32 {
	return l.words[l.offsets[r]:l.offsets[r+1]]
}

// appendRow appends element e's row to dst.
func appendRow(dst []int32, s *System, rank []int32, e int32) []int32 {
	r := rank[e]
	for _, id := range s.SetsOf(e) {
		elems := s.ElemsOf(id)
		if len(elems) > inlineMax {
			dst = append(dst, -id-1)
			continue
		}
		// Write every member's rank and advance past the earlier ones.
		head := len(dst)
		dst = slices.Grow(dst, 1+len(elems))[:head+1+len(elems)]
		w := head + 1
		for _, x := range elems {
			rx := rank[x]
			dst[w] = rx
			if rx < r {
				w++
			}
		}
		dst = dst[:w]
		dst[head] = int32(w - head - 1)
		if w == head+1 {
			break // an empty group decides the element
		}
	}
	return dst
}
