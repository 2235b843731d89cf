// Switch scheduling: maximal matching as the arbiter of an input-queued
// crossbar switch. Each time slot, every input port may forward one
// packet to one output port; the set of (input, output) pairs forwarded
// in a slot must be a matching of the demand graph. Computing a maximal
// matching per slot is the classic crossbar arbitration strategy, and a
// deterministic parallel matching means the switch's behavior is
// reproducible across runs and across the number of arbiter threads.
//
// The example simulates a virtual-output-queued switch under random
// traffic and reports per-slot matching sizes and total throughput.
package main

import (
	"context"
	"fmt"

	greedy "repro"
	"repro/internal/rng"
)

const (
	ports       = 64
	arrivalProb = 0.9 // per (input, output) Bernoulli arrivals per slot
	slots       = 40
	seed        = 7
)

func main() {
	// voq[i][o] is the queue length of packets at input i destined to
	// output o.
	voq := make([][]int, ports)
	for i := range voq {
		voq[i] = make([]int, ports)
	}
	x := rng.NewXoshiro256(seed)

	solver := greedy.NewSolver()
	totalArrived, totalForwarded := 0, 0
	for slot := 1; slot <= slots; slot++ {
		// Arrivals.
		arrived := 0
		for i := 0; i < ports; i++ {
			for o := 0; o < ports; o++ {
				if x.Float64() < arrivalProb/float64(ports) {
					voq[i][o]++
					arrived++
				}
			}
		}
		totalArrived += arrived

		// Demand graph: bipartite, inputs [0, ports) and outputs
		// [ports, 2*ports); an edge per nonempty VOQ.
		var demand []greedy.Edge
		for i := 0; i < ports; i++ {
			for o := 0; o < ports; o++ {
				if voq[i][o] > 0 {
					demand = append(demand, greedy.Edge{U: int32(i), V: int32(ports + o)})
				}
			}
		}
		if len(demand) == 0 {
			fmt.Printf("slot %2d: idle\n", slot)
			continue
		}
		el := greedy.EdgeList{N: 2 * ports, Edges: demand}

		// One maximal matching = one crossbar configuration. The seed
		// mixes in the slot number so different slots use different
		// priorities, but each slot is still fully deterministic.
		res, err := solver.MM(context.Background(), el, greedy.WithSeed(seed+uint64(slot)))
		if err != nil {
			panic(err)
		}

		// Forward one packet per matched pair.
		for _, pair := range res.Pairs {
			in, out := int(pair.U), int(pair.V)-ports
			voq[in][out]--
			totalForwarded++
		}
		backlog := 0
		for i := 0; i < ports; i++ {
			for o := 0; o < ports; o++ {
				backlog += voq[i][o]
			}
		}
		fmt.Printf("slot %2d: arrivals=%3d matched=%3d/%d backlog=%4d\n",
			slot, arrived, res.Size(), ports, backlog)
	}
	fmt.Printf("throughput: forwarded %d of %d arrived packets (%.1f%%)\n",
		totalForwarded, totalArrived, 100*float64(totalForwarded)/float64(totalArrived))
	fmt.Println("a maximal matching guarantees no input and output both idle while traffic waits")
}
