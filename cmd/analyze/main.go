// Command analyze reports the paper's analytical quantities for a graph:
// degree statistics, the dependence length of the MIS and MM priority
// DAGs under random and structured orders, the longest priority-DAG
// path, and per-prefix diagnostics (longest path in the prefix, max
// remaining degree, internal edge counts). It is the command-line face
// of the internal/core and internal/matching analyzers.
//
// Usage:
//
//	analyze -gen random -n 100000 -m 500000
//	analyze -in graph.adj -orders -prefixes
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, writes the
// report to stdout and problems to stderr, and returns the process exit
// code (0 ok, 2 usage/load error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input graph file (empty: use -gen)")
		gen      = fs.String("gen", "random", "generator when no -in: random|rmat|grid|hypercube|ba|smallworld")
		n        = fs.Int("n", 100_000, "generated vertex count")
		m        = fs.Int("m", 500_000, "generated edge count")
		seed     = fs.Uint64("seed", 42, "seed for generator and priorities")
		orders   = fs.Bool("orders", false, "also analyze structured (non-random) orders")
		prefixes = fs.Bool("prefixes", false, "also analyze prefix diagnostics (Lemmas 3.1/3.3/4.3)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g, err := load(*in, *gen, *n, *m, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "analyze: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "graph: %s\n", graph.Stats(g))
	nn := g.NumVertices()
	ord := core.NewRandomOrder(nn, *seed+1)
	lg := math.Log2(float64(nn))

	info := core.DependenceSteps(g, ord)
	fmt.Fprintf(stdout, "MIS (random order): dependence length=%d  longest path=%d  log2(n)^2=%.0f  |MIS|=%d\n",
		info.Steps, core.LongestPath(g, ord), lg*lg, countTrue(info.InSet))

	el := g.EdgeList()
	if el.NumEdges() > 0 {
		mmOrd := core.NewRandomOrder(el.NumEdges(), *seed+2)
		mmInfo := matching.DependenceSteps(el, mmOrd)
		fmt.Fprintf(stdout, "MM  (random order): dependence length=%d  |MM|=%d\n",
			mmInfo.Steps, countTrue(mmInfo.InMatching))
	}

	if *orders {
		fmt.Fprintln(stdout, "\nMIS dependence length by priority order:")
		for _, o := range []struct {
			name string
			ord  core.Order
		}{
			{"random", ord},
			{"identity", core.IdentityOrder(nn)},
			{"reverse-random", core.Reverse(ord)},
			{"bfs", core.BFSOrder(g, 0)},
			{"degree-asc", core.DegreeOrder(g, true)},
			{"degree-desc", core.DegreeOrder(g, false)},
		} {
			fmt.Fprintf(stdout, "  %-15s %d\n", o.name, core.DependenceSteps(g, o.ord).Steps)
		}
	}

	if *prefixes {
		d := g.MaxDegree()
		if d == 0 {
			return 0
		}
		fmt.Fprintln(stdout, "\nprefix diagnostics (multiples of n/maxdeg):")
		fmt.Fprintf(stdout, "  %10s %12s %12s %14s %14s\n", "prefix", "longestPath", "maxRemDeg", "internalEdges", "vWithInternal")
		for _, mult := range []float64{0.25, 0.5, 1, 2, 4, 8} {
			p := int(mult * float64(nn) / float64(d))
			if p < 1 {
				p = 1
			}
			if p > nn {
				p = nn
			}
			edges, withInt := core.PrefixInternalEdges(g, ord, p)
			fmt.Fprintf(stdout, "  %10d %12d %12d %14d %14d\n",
				p,
				core.PrefixLongestPath(g, ord, p),
				core.MaxDegreeAfterPrefix(g, ord, p),
				edges, withInt)
		}
	}
	return 0
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func load(in, gen string, n, m int, seed uint64) (*graph.Graph, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadAuto(f)
	}
	switch gen {
	case "random", "rmat":
		return graph.Generate(gen, n, m, seed)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid2D(side, side), nil
	case "hypercube":
		d := 0
		for 1<<(d+1) <= n {
			d++
		}
		return graph.Hypercube(d), nil
	case "ba":
		return graph.BarabasiAlbert(n, 3, seed), nil
	case "smallworld":
		return graph.WattsStrogatz(n, 6, 0.1, seed), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}
