package matching

import (
	"context"
	"repro/internal/core"
	"repro/internal/graph"
)

// DependenceInfo is the outcome of the edge-priority-DAG analysis, the
// matching counterpart of core.DependenceInfo.
type DependenceInfo struct {
	// Steps is the dependence length of the edge priority DAG: the
	// number of iterations of Algorithm 4, O(log^2 m) w.h.p. for random
	// edge orders (Lemma 5.1).
	Steps int
	// RemoveStep[e] is the 1-based step at which Algorithm 4 removes
	// edge e (matching it or discarding it as a neighbor of a matched
	// edge).
	RemoveStep []int32
	// InMatching[e] reports whether e is in the greedy matching.
	InMatching []bool
}

// DependenceSteps simulates Algorithm 4 analytically in O(m) time after
// the priority sort implicit in ord: processing edges in priority order,
// a matched edge enters one step after the last earlier adjacent edge is
// removed, and a discarded edge leaves at the step its earliest matched
// neighbor enters. Per-vertex running aggregates (when the vertex was
// matched; the latest removal among its processed edges) avoid touching
// each adjacency more than once.
func DependenceSteps(el graph.EdgeList, ord core.Order) DependenceInfo {
	m := el.NumEdges()
	if ord.Len() != m {
		panic("matching: order size does not match edge list")
	}
	const inf = int32(1<<31 - 1)
	removeStep := make([]int32, m)
	inMatching := make([]bool, m)
	matchedAt := make([]int32, el.N)
	maxRemove := make([]int32, el.N)
	for i := range matchedAt {
		matchedAt[i] = inf
	}
	steps := int32(0)
	for r := 0; r < m; r++ {
		e := ord.Order[r]
		edge := el.Edges[e]
		firstKill := matchedAt[edge.U]
		if matchedAt[edge.V] < firstKill {
			firstKill = matchedAt[edge.V]
		}
		if firstKill != inf {
			removeStep[e] = firstKill
		} else {
			s := maxRemove[edge.U]
			if maxRemove[edge.V] > s {
				s = maxRemove[edge.V]
			}
			removeStep[e] = s + 1
			inMatching[e] = true
			matchedAt[edge.U] = removeStep[e]
			matchedAt[edge.V] = removeStep[e]
		}
		if removeStep[e] > maxRemove[edge.U] {
			maxRemove[edge.U] = removeStep[e]
		}
		if removeStep[e] > maxRemove[edge.V] {
			maxRemove[edge.V] = removeStep[e]
		}
		if removeStep[e] > steps {
			steps = removeStep[e]
		}
	}
	return DependenceInfo{Steps: int(steps), RemoveStep: removeStep, InMatching: inMatching}
}

// ViaLineGraphMIS computes the greedy maximal matching by explicitly
// building the line graph of el and running the sequential greedy MIS on
// it with the same priorities — the reduction of Lemma 5.1. The paper
// points out this is inefficient (the line graph can be asymptotically
// larger than the input); it exists as an executable specification that
// the direct algorithms are tested against.
func ViaLineGraphMIS(g *graph.Graph, ord core.Order) *Result {
	lg, el := graph.LineGraph(g)
	// A background context never cancels, the scan's only error.
	misResult, _ := core.SequentialMIS(context.Background(), lg, ord, core.Options{})
	return pairsResult(el, misResult.InSet, misResult.Set, misResult.Stats)
}
