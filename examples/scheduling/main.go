// Scheduling: the paper's motivating application for MIS — "if the
// vertices represent tasks and each edge represents the constraint that
// two tasks cannot run in parallel, the MIS finds a maximal set of tasks
// to run in parallel."
//
// This example builds a synthetic task system in which tasks conflict
// when they touch a shared resource, then schedules it into time slots
// by repeatedly extracting a maximal independent set of the remaining
// conflict graph (greedy coloring by MIS layers). Because the MIS is the
// deterministic lexicographically-first one, the schedule is
// reproducible bit-for-bit at any thread count: a scheduler you can
// debug.
package main

import (
	"context"
	"fmt"

	greedy "repro"
	"repro/internal/rng"
)

const (
	numTasks     = 20_000
	numResources = 4_000
	usesPerTask  = 3
	seed         = 2024
)

func main() {
	// Each task grabs a few resources; two tasks conflict when they
	// share one. (A classic dining-philosophers-at-scale workload.)
	x := rng.NewXoshiro256(seed)
	resources := make([][]int32, numResources)
	for task := 0; task < numTasks; task++ {
		for k := 0; k < usesPerTask; k++ {
			r := x.Intn(numResources)
			resources[r] = append(resources[r], int32(task))
		}
	}
	var conflicts []greedy.Edge
	for _, holders := range resources {
		for i := 0; i < len(holders); i++ {
			for j := i + 1; j < len(holders); j++ {
				if holders[i] != holders[j] {
					conflicts = append(conflicts, greedy.Edge{U: holders[i], V: holders[j]})
				}
			}
		}
	}
	g, err := greedy.NewGraph(numTasks, conflicts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("task system: %d tasks, %d pairwise conflicts, max conflicts per task %d\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree())

	// Schedule: repeatedly run tasks that have no earlier conflicting
	// neighbor. Each round is one MIS of the remaining subgraph; re-use
	// one global priority order so the whole schedule is a pure function
	// of (tasks, seed).
	remaining := make([]bool, numTasks)
	for i := range remaining {
		remaining[i] = true
	}
	left := numTasks
	slot := 0
	cur := g
	// idOf maps current-subgraph vertex ids back to original task ids.
	idOf := make([]int32, numTasks)
	for i := range idOf {
		idOf[i] = int32(i)
	}
	solver := greedy.NewSolver(greedy.WithSeed(seed))
	for left > 0 {
		slot++
		res, err := solver.MIS(context.Background(), cur)
		if err != nil {
			panic(err)
		}
		ran := 0
		var keep []int32
		for v := 0; v < cur.NumVertices(); v++ {
			if res.InSet[v] {
				remaining[idOf[v]] = false
				ran++
			} else {
				keep = append(keep, int32(v))
			}
		}
		left -= ran
		fmt.Printf("slot %2d: ran %5d tasks, %5d remain\n", slot, ran, left)
		if left == 0 {
			break
		}
		cur, idOf = subgraphRemap(cur, keep, idOf)
	}
	fmt.Printf("schedule complete in %d slots (vs %d max-conflicts+1 upper bound)\n",
		slot, g.MaxDegree()+1)
	fmt.Println("re-running produces the identical schedule at any GOMAXPROCS — try it.")
}

// subgraphRemap builds the induced subgraph on keep (ids in cur) and
// composes the id mapping back to original task ids.
func subgraphRemap(cur *greedy.Graph, keep []int32, idOf []int32) (*greedy.Graph, []int32) {
	inKeep := make([]int32, cur.NumVertices())
	for i := range inKeep {
		inKeep[i] = -1
	}
	for i, v := range keep {
		inKeep[v] = int32(i)
	}
	var edges []greedy.Edge
	for _, v := range keep {
		for _, u := range cur.Neighbors(v) {
			if u > v && inKeep[u] != -1 {
				edges = append(edges, greedy.Edge{U: inKeep[v], V: inKeep[u]})
			}
		}
	}
	sub, err := greedy.NewGraph(len(keep), edges)
	if err != nil {
		panic(err)
	}
	newID := make([]int32, len(keep))
	for i, v := range keep {
		newID[i] = idOf[v]
	}
	return sub, newID
}
