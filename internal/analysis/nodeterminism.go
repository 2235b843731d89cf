package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Nodeterminism forbids machine- and run-dependent inputs in the
// result-affecting packages — the packages whose outputs feed a dedup
// key, a checksum, or a serialized payload. The paper's guarantee
// (deterministic greedy results at any processor count) is only
// operationally useful because nothing on the result path reads the
// clock, the environment, global randomness, or Go's randomized map
// iteration order; one such read silently breaks byte-identical
// cross-machine caching.
//
// Forbidden in scope packages:
//   - time.Now / time.Since (wall-clock on a result path)
//   - importing math/rand or math/rand/v2 (global, seed-racy RNG; the
//     repo's deterministic splitmix64 lives in internal/rng)
//   - os.Getenv / os.LookupEnv / os.Environ (environment-dependent
//     results)
//   - ranging over a map (iteration order is randomized per run)
//   - runtime.GOMAXPROCS / parallel.Procs (machine-dependent), allowed
//     only at sites annotated //lint:allow nodeterminism <reason> —
//     the adaptive-window growth cap in internal/engine/adaptive.go is
//     the one argued-safe site (the cap bounds growth, never the
//     schedule's dependence on per-round counters).
//   - importing repro/internal/fault (fault injection): failpoints are
//     exempt from this analyzer precisely because they live outside
//     the result path, where they may perturb when and whether work
//     completes but never what bytes are computed. A failpoint planted
//     in a scope package would void that argument, so the import
//     itself is the violation.
var Nodeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid clock, env, global RNG, map-order, GOMAXPROCS and fault-injection in result-affecting packages",
	Scope: scopeByBase(
		"core", "matching", "spanning", "dynamic", "engine",
		"coloring", "setcover",
		"graph", "rng", "unionfind",
	),
	Run: runNodeterminism,
}

func runNodeterminism(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in a result-affecting package: use internal/rng's seeded splitmix64 so results are a pure function of the seed", p)
			}
			if p == "repro/internal/fault" {
				pass.Reportf(imp.Pos(), "import of %s in a result-affecting package: failpoints may perturb scheduling and I/O but never the computed bytes — plant them in the service or persistence layers instead", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				switch {
				case isPkgFunc(fn, "time", "Now", "Since"):
					pass.Reportf(n.Pos(), "time.%s in a result-affecting package: wall-clock reads make results machine- and run-dependent", fn.Name())
				case isPkgFunc(fn, "os", "Getenv", "LookupEnv", "Environ"):
					pass.Reportf(n.Pos(), "os.%s in a result-affecting package: environment reads make results machine-dependent", fn.Name())
				case isPkgFunc(fn, "runtime", "GOMAXPROCS"),
					isPkgFunc(fn, "repro/internal/parallel", "Procs"):
					pass.Reportf(n.Pos(), "%s.%s reads GOMAXPROCS in a result-affecting package: results must be identical at every processor count (annotate //lint:allow nodeterminism <reason> where machine-independence of the RESULT is argued)", fn.Pkg().Name(), fn.Name())
				}
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "range over map in a result-affecting package: iteration order is randomized per run — iterate a sorted key slice instead")
				}
			}
			return true
		})
	}
}
