// Command gengraph generates the paper's input graphs (and the library's
// structured test graphs) and writes them in the PBBS AdjacencyGraph
// text format or the library's binary format.
//
// Usage:
//
//	gengraph -kind random -n 1000000 -m 5000000 -o random.adj
//	gengraph -kind rmat -logn 20 -m 5000000 -format binary -o rmat.bin
//	gengraph -kind grid -rows 1000 -cols 1000 -o grid.adj
//	gengraph -kind random -n 1000 -m 5000 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, writes the
// graph to stdout (or -o), stats and problems to stderr, and returns
// the process exit code (0 ok, 1 write error, 2 usage/build error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("kind", "random", "random|rmat|grid|torus|complete|star|path|cycle|tree|bipartite|regular")
		n      = fs.Int("n", 1_000_000, "vertex count (random, star, path, cycle, tree, complete, regular)")
		m      = fs.Int("m", 5_000_000, "edge count (random, rmat, bipartite)")
		logn   = fs.Int("logn", 20, "log2 vertex count (rmat)")
		rows   = fs.Int("rows", 1000, "rows (grid, torus)")
		cols   = fs.Int("cols", 1000, "cols (grid, torus)")
		left   = fs.Int("left", 1000, "left part size (bipartite)")
		right  = fs.Int("right", 1000, "right part size (bipartite)")
		degree = fs.Int("degree", 8, "target degree (regular)")
		seed   = fs.Uint64("seed", 42, "generator seed")
		format = fs.String("format", "adjacency", "adjacency|edges|binary")
		out    = fs.String("o", "-", "output file (- for stdout)")
		stats  = fs.Bool("stats", false, "print graph statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g, err := build(*kind, *n, *m, *logn, *rows, *cols, *left, *right, *degree, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "gengraph: %v\n", err)
		return 2
	}
	if *stats {
		fmt.Fprintf(stderr, "%s\n", graph.Stats(g))
	}

	w := stdout
	var f *os.File
	if *out != "-" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "gengraph: %v\n", err)
			return 1
		}
		w = f
	}
	switch *format {
	case "adjacency":
		err = graph.WriteAdjacency(w, g)
	case "edges":
		err = graph.WriteEdgeArray(w, g)
	case "binary":
		err = graph.WriteBinary(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if f != nil {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "gengraph: %v\n", err)
		return 1
	}
	return 0
}

func build(kind string, n, m, logn, rows, cols, left, right, degree int, seed uint64) (*graph.Graph, error) {
	switch kind {
	case "random":
		return graph.Random(n, m, seed), nil
	case "rmat":
		return graph.RMat(logn, m, seed), nil
	case "grid":
		return graph.Grid2D(rows, cols), nil
	case "torus":
		return graph.Torus2D(rows, cols), nil
	case "complete":
		return graph.Complete(n), nil
	case "star":
		return graph.Star(n), nil
	case "path":
		return graph.Path(n), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "tree":
		return graph.RandomTree(n, seed), nil
	case "bipartite":
		return graph.RandomBipartite(left, right, m, seed), nil
	case "regular":
		return graph.NearRegular(n, degree, seed), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
