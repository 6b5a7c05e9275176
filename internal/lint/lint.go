// Package lint is campslint: a suite of static analyzers that enforce
// the simulator's determinism and concurrency invariants at build time.
//
// The checkpoint/resume store (internal/exp) asserts that a restored
// Results is bit-identical to a fresh run, and the paper's scheme
// comparisons are only meaningful if every scheme sees an identical
// event stream. Those invariants — no wall clock or global RNG in
// simulation code, no map-iteration order leaking into results, context
// threaded through every run path — used to live only in reviewers'
// heads. This package encodes them as compiler-checked rules.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, testdata with "want" comments) but is
// built on the standard library alone: packages are loaded with
// `go list -export` and type-checked with go/types, importing
// dependencies from the build cache's export data (see load.go). The
// repository has no third-party dependencies and the lint layer keeps it
// that way.
//
// Findings are suppressed with a directive comment carrying a mandatory
// reason, e.g.
//
//	t0 := time.Now() //lint:allow-wallclock coarse progress logging only
//
// A directive applies to its own line and the line directly below it; a
// directive without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Exactly one of Run (a
// per-package check) and RunProgram (a whole-program check over the
// facts layer and call graph) is set.
type Analyzer struct {
	// Name identifies the analyzer in output and in the -only flag.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Allow is the directive suffix that suppresses this analyzer's
	// findings: //lint:allow-<Allow> <reason>.
	Allow string
	// Run reports findings on one package through pass.Reportf.
	Run func(pass *Pass)
	// RunProgram reports findings across the whole program through
	// pass.Report; it sees every module package via the summaries and
	// the call graph.
	RunProgram func(pass *ProgramPass)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole program through one whole-program
// analyzer: the loaded packages, their summaries (facts), and the call
// graph joining them.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Sums     *SummarySet
	Graph    *CallGraph

	diags []Diagnostic
}

// Report records a finding at an already-resolved position (facts carry
// token.Position, not token.Pos).
func (p *ProgramPass) Report(pos token.Position, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunProgramAnalyzer applies one whole-program analyzer and returns its
// findings with directives applied program-wide: a reasoned
// //lint:allow-<name> next to a finding suppresses it even when the
// finding sits in a dependency package, and a reasonless directive in a
// target package is itself a finding.
func RunProgramAnalyzer(a *Analyzer, prog *Program, sums *SummarySet, graph *CallGraph) []Diagnostic {
	pass := &ProgramPass{Analyzer: a, Prog: prog, Sums: sums, Graph: graph}
	a.RunProgram(pass)

	var out []Diagnostic
	for _, d := range pass.diags {
		if !prog.suppressedAt(d.Pos, a.Allow) {
			out = append(out, d)
		}
	}
	for _, pkg := range prog.Targets() {
		for _, dir := range parseDirectives(pkg.Fset, pkg.Files) {
			if dir.name == a.Allow && dir.reason == "" {
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(dir.pos),
					Analyzer: a.Name,
					Message: fmt.Sprintf("lint:allow-%s directive needs a reason: //lint:allow-%s <why this is safe>",
						a.Allow, a.Allow),
				})
			}
		}
	}
	sortDiagnostics(out)
	return out
}

// directive is one parsed //lint:allow-<name> <reason> comment.
type directive struct {
	name   string
	reason string
	file   string
	line   int
	pos    token.Pos
}

const directivePrefix = "//lint:allow-"

// parseDirectives extracts every lint directive from the package's
// comments. The reason is cut at any nested "//" so that a trailing
// comment (such as a test's want clause) is not mistaken for a reason.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := c.Text[len(directivePrefix):]
				name, reason, _ := strings.Cut(rest, " ")
				if i := strings.Index(reason, "//"); i >= 0 {
					reason = reason[:i]
				}
				pos := fset.Position(c.Pos())
				out = append(out, directive{
					name:   name,
					reason: strings.TrimSpace(reason),
					file:   pos.Filename,
					line:   pos.Line,
					pos:    c.Pos(),
				})
			}
		}
	}
	return out
}

// RunAnalyzer applies one analyzer to one loaded package and returns its
// findings with directives applied: suppressed findings are dropped, and
// a directive for this analyzer that lacks a reason is reported.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	a.Run(pass)

	dirs := parseDirectives(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, d := range pass.diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.name == a.Allow && dir.reason != "" && dir.file == d.Pos.Filename &&
				(d.Pos.Line == dir.line || d.Pos.Line == dir.line+1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if dir.name == a.Allow && dir.reason == "" {
			out = append(out, Diagnostic{
				Pos:      pkg.Fset.Position(dir.pos),
				Analyzer: a.Name,
				Message: fmt.Sprintf("lint:allow-%s directive needs a reason: //lint:allow-%s <why this is safe>",
					a.Allow, a.Allow),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

// CheckDirectives reports directives whose name matches no analyzer, so
// a typo like //lint:allow-wallclok cannot silently suppress nothing.
func CheckDirectives(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		known[a.Allow] = true
		names = append(names, "allow-"+a.Allow)
	}
	sort.Strings(names)
	var out []Diagnostic
	for _, dir := range parseDirectives(pkg.Fset, pkg.Files) {
		if !known[dir.name] {
			out = append(out, Diagnostic{
				Pos:      pkg.Fset.Position(dir.pos),
				Analyzer: "campslint",
				Message: fmt.Sprintf("unknown directive lint:allow-%s (known directives: %s)",
					dir.name, strings.Join(names, ", ")),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// inspectStack walks root depth-first, calling fn with every node and the
// stack of its ancestors (outermost first, root excluded from its own
// stack). Returning false skips the node's children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal on
// the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcOf resolves a call-ish expression to the package-level or method
// *types.Func it refers to, or nil.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function path.name
// (methods never match).
func isPkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == path && fn.Name() == name
}

// namedType reports whether t (after pointer indirection) is the named
// type path.name.
func namedType(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
