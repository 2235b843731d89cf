package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Forrangealias checks the function literals handed to the fork-join
// primitives, either inline or through a local variable bound once to
// a literal (a loop body hoisted out of its round loop is checked like
// an inline one):
//
//   - parallel.ForRange / parallel.For / parallel.ForBlocks /
//     parallel.Team.ForRange bodies and parallel.Reduce leaf functions
//     run concurrently with themselves, so they must not write
//     captured (free) variables through anything but a disjoint
//     index — the element-write idiom `out[i] = ...` is the
//     deterministic-parallelism contract, while `captured += x` or
//     `shared.field = v` is a data race whose loser is
//     schedule-dependent, exactly the nondeterminism the paper's
//     reservation discipline exists to eliminate. Taking the address
//     of a captured non-indexed variable is flagged too, unless the
//     address feeds a sync/atomic call (the sanctioned way to share a
//     scalar).
//
//   - parallel.Do thunks each run once, so writing DISTINCT captured
//     result variables from distinct thunks is the normal fork-join
//     result-passing idiom; only the same variable written from two or
//     more thunks of one Do call is a race and is flagged.
//
// A body that takes a lock (calls .Lock() on anything) is exempt from
// the write checks: mutual exclusion makes the writes safe, though the
// result may still be order-dependent — that is the
// sequential-equivalence tests' problem, not a torn write.
var Forrangealias = &Analyzer{
	Name: "forrangealias",
	Doc:  "parallel fork-join bodies must not write captured state without atomics or indexed disjointness",
	Run:  runForrangealias,
}

func runForrangealias(pass *Pass) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		bound := boundLiterals(info, f)
		checked := map[*ast.FuncLit]bool{}
		// body resolves a call argument to the literal it denotes, once
		// per literal, so a hoisted body passed at several sites is
		// reported once.
		body := func(arg ast.Expr) *ast.FuncLit {
			var lit *ast.FuncLit
			switch e := ast.Unparen(arg).(type) {
			case *ast.FuncLit:
				lit = e
			case *ast.Ident:
				if v, ok := info.Uses[e].(*types.Var); ok {
					lit = bound[v]
				}
			}
			if lit == nil || checked[lit] {
				return nil
			}
			checked[lit] = true
			return lit
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			switch {
			case isPkgFunc(fn, "repro/internal/parallel", "ForRange", "For", "ForBlocks"),
				fn != nil && fn.FullName() == "(*repro/internal/parallel.Team).ForRange":
				for _, arg := range call.Args {
					if lit := body(arg); lit != nil {
						checkConcurrentBody(pass, lit, nil)
					}
				}
			case isPkgFunc(fn, "repro/internal/parallel", "Reduce"):
				// Reduce(n, grain, identity, leaf, combine): only the leaf
				// runs concurrently; combine folds the chunk results
				// sequentially after the join.
				if len(call.Args) == 5 {
					if lit := body(call.Args[3]); lit != nil {
						checkConcurrentBody(pass, lit, nil)
					}
				}
			case isPkgFunc(fn, "repro/internal/parallel", "Do"):
				checkDoThunks(pass, call)
			}
			return true
		})
	}
}

// boundLiterals maps each local variable of f that is assigned exactly
// once, and from a function literal, to that literal. A declaration
// without a value is not an assignment; any other assignment, or a
// non-literal one, disqualifies the variable.
func boundLiterals(info *types.Info, f *ast.File) map[*types.Var]*ast.FuncLit {
	lits := map[*types.Var]*ast.FuncLit{}
	writes := map[*types.Var]int{}
	bind := func(id *ast.Ident, rhs ast.Expr) {
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			v, ok = info.Uses[id].(*types.Var)
		}
		if !ok || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			return
		}
		writes[v]++
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			lits[v] = lit
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				bind(id, rhs)
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) {
					bind(id, n.Values[i])
				}
			}
		}
		return true
	})
	for v := range lits {
		if writes[v] != 1 {
			delete(lits, v)
		}
	}
	return lits
}

// freeVarFunc returns a resolver mapping identifiers to the captured
// variable they name, or nil for identifiers declared inside lit.
func freeVarFunc(info *types.Info, lit *ast.FuncLit) func(*ast.Ident) *types.Var {
	return func(id *ast.Ident) *types.Var {
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return nil // declared inside the body: per-invocation state
		}
		return v
	}
}

// bodyTakesLock reports whether the literal calls .Lock() on anything.
func bodyTakesLock(lit *ast.FuncLit) bool {
	takes := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
				takes = true
			}
		}
		return !takes
	})
	return takes
}

// checkConcurrentBody flags unsynchronized writes to free variables
// inside a literal that runs concurrently with itself. When collect is
// non-nil the findings are recorded there instead of reported (used by
// the Do cross-thunk check).
func checkConcurrentBody(pass *Pass, lit *ast.FuncLit, collect map[*types.Var]ast.Expr) {
	info := pass.TypesInfo
	free := freeVarFunc(info, lit)
	if bodyTakesLock(lit) {
		return
	}
	walk(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v, root := nonIndexedFreeTarget(info, lhs, free); v != nil {
					if collect != nil {
						if _, ok := collect[v]; !ok {
							collect[v] = root
						}
						continue
					}
					pass.Reportf(root.Pos(), "parallel body writes captured variable %s without an index or atomic: concurrent chunks race and the winner is schedule-dependent — write through a disjoint index, use sync/atomic, or reduce per-chunk locals after the join", v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v, root := nonIndexedFreeTarget(info, n.X, free); v != nil {
				if collect != nil {
					if _, ok := collect[v]; !ok {
						collect[v] = root
					}
					return true
				}
				pass.Reportf(root.Pos(), "parallel body increments captured variable %s without an index or atomic: concurrent chunks race — accumulate a per-chunk local and combine after the join, or use sync/atomic", v.Name())
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND || collect != nil {
				return true
			}
			if v, root := nonIndexedFreeTarget(info, n.X, free); v != nil && !addressFeedsAtomic(info, stack) {
				pass.Reportf(root.Pos(), "parallel body takes the address of captured variable %s: aliasing shared non-indexed state into concurrent chunks invites torn access — pass &slice[i] or feed the address to sync/atomic", v.Name())
			}
		}
		return true
	})
}

// checkDoThunks reports captured variables written by two or more
// function-literal thunks of one parallel.Do call.
func checkDoThunks(pass *Pass, call *ast.CallExpr) {
	type hit struct {
		count int
		site  ast.Expr
	}
	writes := map[*types.Var]*hit{}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		perThunk := map[*types.Var]ast.Expr{}
		checkConcurrentBody(pass, lit, perThunk)
		for v, site := range perThunk {
			h := writes[v]
			if h == nil {
				h = &hit{}
				writes[v] = h
			}
			h.count++
			h.site = site
		}
	}
	for v, h := range writes {
		if h.count >= 2 {
			pass.Reportf(h.site.Pos(), "captured variable %s is written by %d thunks of one parallel.Do call: the thunks run concurrently — give each thunk its own result variable", v.Name(), h.count)
		}
	}
}

// nonIndexedFreeTarget reports whether expr is a write target rooted at
// a free variable with no index anywhere on the path (a plain ident, or
// a selector/deref chain over a free root). Indexed targets (out[i],
// s.buf[i].field) are the sanctioned disjoint-element idiom and return
// nil.
func nonIndexedFreeTarget(info *types.Info, expr ast.Expr, free func(*ast.Ident) *types.Var) (*types.Var, ast.Expr) {
	root := ast.Unparen(expr)
	for {
		switch e := root.(type) {
		case *ast.SelectorExpr:
			// A selector to a field keeps walking; a package-qualified
			// ident is not a write target we track.
			if _, ok := info.Uses[e.Sel].(*types.Var); !ok {
				return nil, nil
			}
			root = ast.Unparen(e.X)
		case *ast.StarExpr:
			root = ast.Unparen(e.X)
		case *ast.IndexExpr:
			return nil, nil // element write: disjoint by construction
		case *ast.Ident:
			if e.Name == "_" {
				return nil, nil
			}
			if v := free(e); v != nil {
				return v, expr
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// addressFeedsAtomic reports whether the innermost enclosing call of
// the &x expression is a sync/atomic function or the parallel
// package's atomic priority write, WriteMin32.
func addressFeedsAtomic(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			fn := calleeFunc(info, p)
			if fn == nil || fn.Pkg() == nil {
				return false
			}
			if fn.Pkg().Path() == "sync/atomic" {
				return true
			}
			return isPkgFunc(fn, "repro/internal/parallel", "WriteMin32")
		default:
			return false
		}
	}
	return false
}
