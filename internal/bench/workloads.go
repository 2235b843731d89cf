package bench

import (
	"fmt"

	"repro/internal/graph"
)

// Workload identifies one of the paper's two experimental inputs.
type Workload struct {
	// Kind is "random" (the paper's sparse random graph, n=10^7,
	// m=5x10^7) or "rmat" (the paper's rMat graph, n=2^24, m=5x10^7,
	// power-law degrees).
	Kind string
	// N is the requested vertex count; Build rounds an rmat one up to a
	// power of 2, and String prints the count Build generates.
	N int
	// M is the undirected edge count.
	M int
	// Seed drives both the generator and, via Seed+1, the priority
	// permutation.
	Seed uint64
}

// DefaultScale returns the paper's workloads scaled down by factor
// 2^shrink: shrink 0 is paper-size (n=10^7 / 2^24, m=5x10^7), shrink 3
// (the harness default) is n=1.25x10^6, m=6.25x10^6 — sized for a small
// container while keeping the paper's m/n ratios.
func DefaultScale(kind string, shrink uint) Workload {
	switch kind {
	case "random":
		return Workload{Kind: "random", N: 10_000_000 >> shrink, M: 50_000_000 >> shrink, Seed: 42}
	case "rmat":
		logN := 24 - int(shrink)
		return Workload{Kind: "rmat", N: 1 << logN, M: 50_000_000 >> shrink, Seed: 42}
	default:
		panic(fmt.Sprintf("bench: unknown workload kind %q", kind))
	}
}

// Build generates the workload's graph.
func (w Workload) Build() *graph.Graph { return mustGenerate(w.Kind, w.N, w.M, w.Seed) }

// mustGenerate is graph.Generate for the harness's own inputs, panicking
// on an unknown family or an impossible edge count.
func mustGenerate(family string, n, m int, seed uint64) *graph.Graph {
	g, err := graph.Generate(family, n, m, seed)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return g
}

func (w Workload) String() string {
	return fmt.Sprintf("%s(n=%d, m=%d, seed=%d)", w.Kind, graph.GeneratedVertices(w.Kind, w.N), w.M, w.Seed)
}

// DefaultFracs is the prefix-fraction sweep used for Figures 1 and 2,
// spanning the paper's 10^-8..10^0 x-axis (clamped below so the prefix
// is at least one iterate).
var DefaultFracs = []float64{
	1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 0.3, 1.0,
}
