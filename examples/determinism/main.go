// Determinism: the paper's second headline claim — "once an ordering is
// fixed, the approach guarantees the same result whether run in parallel
// or sequentially or, in fact, choosing any schedule of the iterations
// that respects the dependences."
//
// This example runs every deterministic algorithm variant, at several
// prefix sizes, grain sizes and GOMAXPROCS settings, and shows that all
// of them produce the same fingerprint; Luby's algorithm, which redraws
// priorities each round, is included as the intentional counterexample.
// It exits with status 1 if any deterministic variant disagrees.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"

	greedy "repro"
	"repro/internal/rng"
)

func fingerprintBools(bs []bool) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i, b := range bs {
		if b {
			h = rng.Hash2(h, uint64(i))
		}
	}
	return h
}

func main() {
	g := greedy.RandomGraph(50_000, 250_000, 99)
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("host: %d CPUs\n\n", runtime.NumCPU())

	// One Solver serves every run; its reused workspace does not change
	// any answer.
	solver := greedy.NewSolver()
	in := greedy.GraphInput(g)
	solve := func(p greedy.Problem, opts ...greedy.Option) greedy.Answer {
		a, err := solver.Solve(context.Background(), p, in, opts...)
		if err != nil {
			log.Fatal(err)
		}
		return a
	}

	type variant struct {
		name string
		opts []greedy.Option
	}
	variants := []variant{
		{"sequential", []greedy.Option{greedy.WithAlgorithm(greedy.AlgoSequential)}},
		{"rootset", []greedy.Option{greedy.WithAlgorithm(greedy.AlgoRootSet)}},
		{"parallel-full", []greedy.Option{greedy.WithAlgorithm(greedy.AlgoParallel)}},
		{"prefix-default", nil},
		{"prefix-0.1%", []greedy.Option{greedy.WithPrefixFrac(0.001)}},
		{"prefix-50%", []greedy.Option{greedy.WithPrefixFrac(0.5)}},
		{"prefix-grain-16", []greedy.Option{greedy.WithPrefixFrac(0.5), greedy.WithGrain(16)}},
		{"prefix-pointered", []greedy.Option{greedy.WithPointer()}},
	}

	fmt.Println("MIS fingerprints (seed 5), across algorithms x GOMAXPROCS:")
	var reference uint64
	consistent := true
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, v := range variants {
			opts := append([]greedy.Option{greedy.WithSeed(5)}, v.opts...)
			res := solve(greedy.ProblemMIS, opts...)
			fp := fingerprintBools(res.In)
			if reference == 0 {
				reference = fp
			}
			if fp != reference {
				consistent = false
			}
			fmt.Printf("  procs=%d %-18s size=%-6d fp=%016x\n", procs, v.name, res.Size, fp)
		}
		runtime.GOMAXPROCS(old)
	}
	if consistent {
		fmt.Println("=> every deterministic variant agrees, at every thread count")
	} else {
		fmt.Println("=> DETERMINISM VIOLATED (this is a bug)")
	}

	fmt.Println("\nchanging the seed changes the (equally valid) answer:")
	for _, seed := range []uint64{5, 6, 7} {
		res := solve(greedy.ProblemMIS, greedy.WithSeed(seed))
		fmt.Printf("  seed=%d size=%-6d fp=%016x\n", seed, res.Size, fingerprintBools(res.In))
	}

	fmt.Println("\nLuby's algorithm (fresh priorities each round) is deterministic in its")
	fmt.Println("seed but computes a different MIS than the greedy order:")
	luby := solve(greedy.ProblemMIS, greedy.WithSeed(5), greedy.WithAlgorithm(greedy.AlgoLuby))
	fmt.Printf("  luby seed=5 size=%-6d fp=%016x\n", luby.Size, fingerprintBools(luby.In))

	fmt.Println("\nsame story for maximal matching:")
	mmRef := solve(greedy.ProblemMM, greedy.WithSeed(5), greedy.WithAlgorithm(greedy.AlgoSequential))
	for _, v := range []variant{
		{"rootset", []greedy.Option{greedy.WithAlgorithm(greedy.AlgoRootSet)}},
		{"parallel-full", []greedy.Option{greedy.WithAlgorithm(greedy.AlgoParallel)}},
		{"prefix-default", nil},
	} {
		opts := append([]greedy.Option{greedy.WithSeed(5)}, v.opts...)
		res := solve(greedy.ProblemMM, opts...)
		same := res.Matches(mmRef)
		consistent = consistent && same
		fmt.Printf("  %-18s size=%-6d same-as-sequential=%v\n", v.name, res.Size, same)
	}
	if !consistent {
		os.Exit(1)
	}
}
