package graph

import (
	"fmt"
	"sort"
	"strings"
)

// DegreeStats summarizes the degree distribution of a graph. The rMat
// input's power-law skew versus the random graph's concentration around
// 2m/n is the structural difference behind the two columns of the
// paper's figures.
type DegreeStats struct {
	N, M               int
	Min, Max           int
	Mean               float64
	Median             int
	P90, P99           int
	IsolatedVertices   int
	ConnectedComps     int
	LargestComponent   int
	DegeneracyEstimate int // max over the degree-peeling order (exact degeneracy)
}

// Stats computes DegreeStats for g. It runs in O(n + m) plus a sort of
// the degree sequence.
func Stats(g *Graph) DegreeStats {
	n := g.NumVertices()
	s := DegreeStats{N: n, M: g.NumEdges()}
	if n == 0 {
		return s
	}
	degs := make([]int, n)
	minD, maxD, sum := int(^uint(0)>>1), 0, 0
	for v := 0; v < n; v++ {
		d := g.Degree(Vertex(v))
		degs[v] = d
		sum += d
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
		if d == 0 {
			s.IsolatedVertices++
		}
	}
	s.Min, s.Max = minD, maxD
	s.Mean = float64(sum) / float64(n)
	sorted := append([]int(nil), degs...)
	sort.Ints(sorted)
	s.Median = sorted[n/2]
	s.P90 = sorted[(n*9)/10]
	s.P99 = sorted[(n*99)/100]
	s.ConnectedComps, s.LargestComponent = components(g)
	s.DegeneracyEstimate = degeneracy(g, degs)
	return s
}

func (s DegreeStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d deg[min=%d med=%d mean=%.2f p90=%d p99=%d max=%d] ",
		s.N, s.M, s.Min, s.Median, s.Mean, s.P90, s.P99, s.Max)
	fmt.Fprintf(&b, "isolated=%d components=%d largest=%d degeneracy=%d",
		s.IsolatedVertices, s.ConnectedComps, s.LargestComponent, s.DegeneracyEstimate)
	return b.String()
}

// components returns the number of connected components and the size of
// the largest, via an iterative BFS.
func components(g *Graph) (count, largest int) {
	n := g.NumVertices()
	visited := make([]bool, n)
	queue := make([]Vertex, 0, 1024)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		count++
		size := 0
		visited[start] = true
		queue = append(queue[:0], Vertex(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	return count, largest
}

// degeneracy computes the graph degeneracy (the max min-degree over the
// peeling order) with the standard bucket-queue algorithm in O(n + m).
func degeneracy(g *Graph, degs []int) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	maxD := 0
	for _, d := range degs {
		if d > maxD {
			maxD = d
		}
	}
	deg := append([]int(nil), degs...)
	buckets := make([][]Vertex, maxD+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], Vertex(v))
	}
	removed := make([]bool, n)
	k := 0
	cur := 0
	for processed := 0; processed < n; {
		for cur <= maxD && len(buckets[cur]) == 0 {
			cur++
		}
		if cur > maxD {
			break
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if removed[v] || deg[v] != cur {
			continue // stale bucket entry
		}
		removed[v] = true
		processed++
		if cur > k {
			k = cur
		}
		for _, u := range g.Neighbors(v) {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				if deg[u] < cur {
					cur = deg[u]
				}
			}
		}
	}
	return k
}
