// Package analysis is the repo's static-analysis suite: a small,
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// driver shape (Analyzer / Pass / Diagnostic) plus the five greedylint
// analyzers that mechanically enforce the determinism and concurrency
// invariants the rest of the tree proves by hand — the properties that
// make a (graph, problem, seed, prefix) dedup key sound: byte-identical
// payloads on any machine at any GOMAXPROCS.
//
// The framework is deliberately self-contained: the container this repo
// builds in has no module cache, so golang.org/x/tools is unavailable.
// Imports are resolved from compiler export data produced by
// `go list -deps -export`, and analyzed packages are parsed and
// type-checked from source — the same information a real go/analysis
// driver would hand its passes.
//
// Suppression: a finding is silenced by the directive
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line, on the line directly above it, or in
// the doc comment of the enclosing function declaration (which extends
// the allowance to the whole function — the escape hatch for annotated
// init/Reset-style functions that legitimately touch atomic fields with
// plain loads). A directive without a reason string, or naming an
// unknown analyzer, is itself reported and cannot be suppressed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: a name, a documentation string,
// an optional package scope, and the function that runs it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Scope, when non-nil, restricts the analyzer to packages for which
	// it returns true (by import path). A nil Scope means every package.
	Scope func(pkgPath string) bool
	// Run performs the analysis on one package, reporting findings
	// through the pass.
	Run func(pass *Pass)
}

// A Pass provides one analyzer run with everything it needs to analyze
// a single package, mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the greedylint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Nodeterminism,
		Atomicmix,
		Ctxround,
		Nilguard,
		Forrangealias,
	}
}

// allowRe matches a //lint:allow directive. The reason is everything
// after the analyzer name; it is required, but the regexp accepts its
// absence so the audit can report it instead of silently ignoring the
// directive.
var allowRe = regexp.MustCompile(`^//lint:allow\s+(\S+)(?:\s+(.*\S))?\s*$`)

// allowSpan is one directive's effect: findings of Analyzer on lines
// [FromLine, ToLine] of File are suppressed.
type allowSpan struct {
	File     string
	Analyzer string
	FromLine int
	ToLine   int
}

// directive is one parsed //lint:allow comment, before scoping.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
}

// collectAllows parses every //lint:allow directive in the files and
// returns the suppression spans plus audit diagnostics for malformed
// directives (missing reason, unknown analyzer). known is the set of
// valid analyzer names.
func collectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]allowSpan, []Diagnostic) {
	var spans []allowSpan
	var audit []Diagnostic
	for _, f := range files {
		// Map from directive line to the directive, so function-doc
		// directives can be widened to the whole declaration below.
		byLine := map[int]directive{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				d := directive{pos: pos, analyzer: m[1], reason: m[2]}
				if d.reason == "" {
					audit = append(audit, Diagnostic{
						Analyzer: "allowaudit",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:allow %s has no reason string (write //lint:allow %s <why this site is exempt>)", d.analyzer, d.analyzer),
					})
					continue
				}
				if !known[d.analyzer] {
					audit = append(audit, Diagnostic{
						Analyzer: "allowaudit",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", d.analyzer),
					})
					continue
				}
				byLine[pos.Line] = d
				// Line-scoped effect: the directive's own line (trailing
				// comments) and the line below (standalone comments).
				spans = append(spans, allowSpan{
					File:     pos.Filename,
					Analyzer: d.analyzer,
					FromLine: pos.Line,
					ToLine:   pos.Line + 1,
				})
			}
		}
		// Function-scoped effect: a directive inside a FuncDecl's doc
		// comment covers the whole declaration.
		if len(byLine) == 0 {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			from := fset.Position(fd.Doc.Pos()).Line
			to := fset.Position(fd.End()).Line
			for line, d := range byLine {
				if line >= from && line <= fset.Position(fd.Doc.End()).Line {
					spans = append(spans, allowSpan{
						File:     d.pos.Filename,
						Analyzer: d.analyzer,
						FromLine: from,
						ToLine:   to,
					})
				}
			}
		}
	}
	return spans, audit
}

// suppressed reports whether d is covered by one of the spans.
func suppressed(d Diagnostic, spans []allowSpan) bool {
	for _, s := range spans {
		if s.Analyzer == d.Analyzer && s.File == d.Pos.Filename &&
			d.Pos.Line >= s.FromLine && d.Pos.Line <= s.ToLine {
			return true
		}
	}
	return false
}

// RunAnalyzers runs the given analyzers over the loaded packages,
// applying //lint:allow suppression and auditing the directives
// themselves. Diagnostics come back sorted by file, line, analyzer.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		spans, audit := collectAllows(pkg.Fset, pkg.Files, known)
		out = append(out, audit...)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				if !suppressed(d, spans) {
					out = append(out, d)
				}
			}
			a.Run(pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// lastSegment returns the final path element of an import path.
func lastSegment(pkgPath string) string {
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[i+1:]
	}
	return pkgPath
}

// scopeByBase returns a Scope matching packages whose final import-path
// element is one of names. Matching on the final element (rather than
// the full repro/internal/... path) lets the analysistest fixtures
// under testdata/src/<analyzer>/<name> exercise the same scoping the
// real tree gets.
func scopeByBase(names ...string) func(string) bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(pkgPath string) bool { return set[lastSegment(pkgPath)] }
}

// calleeFunc resolves the called function or method of a call
// expression, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is one of the named package-level
// functions of the package with import path pkgPath.
func isPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// walk visits the AST rooted at n, calling visit with each node and its
// ancestor stack (nearest last). Returning false prunes the subtree.
func walk(n ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := visit(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}
