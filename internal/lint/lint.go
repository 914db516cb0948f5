package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check. Per-package analyzers run once per
// loaded package with Pass.Pkg set; whole-program analyzers (Program =
// true) run once with Pass.Pkg nil and see every package at once —
// that is what lets nodeterminism walk call graphs across package
// boundaries, which the upstream per-package go/analysis model cannot.
type Analyzer struct {
	Name string
	Doc  string
	// Program marks a whole-program analyzer.
	Program bool
	Run     func(pass *Pass)
}

// A Package is one type-checked package of the loaded program.
type Package struct {
	Path  string // import path ("repro/internal/core")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Program is the full set of packages one Load call produced, plus
// the cross-package indexes the analyzers share.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	root string // module root directory (absolute)

	decls map[*types.Func]funcDecl
	reach *reachability // built lazily by Reachable
}

// funcDecl locates one function declaration: its AST node and the
// package whose Info resolves identifiers inside its body.
type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// DeclOf returns the declaration of a module-internal function or
// method, with the package that owns it, or ok = false for functions
// the program does not define (stdlib, interface methods without a
// static callee).
func (p *Program) DeclOf(fn *types.Func) (*ast.FuncDecl, *Package, bool) {
	fd, ok := p.decls[fn]
	return fd.decl, fd.pkg, ok
}

// indexDecls builds the types.Func → declaration map the call-graph
// walkers use to cross package boundaries. Object identity holds
// across packages because every package is type-checked once through
// one shared importer.
func (p *Program) indexDecls() {
	p.decls = make(map[*types.Func]funcDecl)
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.decls[fn] = funcDecl{decl: fd, pkg: pkg}
				}
			}
		}
	}
}

// A Diagnostic is one finding, resolved to a position. Suppressed
// diagnostics carry the allow directive's reason and do not fail a
// run, but are retained so tooling can list what has been waived.
type Diagnostic struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
	Reason     string // the //lint:allow justification, when suppressed
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", d.Reason)
	}
	return s
}

// A Pass carries one analyzer invocation's context and collects its
// reports.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package // nil for whole-program analyzers

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in presentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		MapSort,
		RegisterInit,
		ParamAccess,
		TestOnly,
	}
}

// Run executes the given analyzers over the program and returns every
// diagnostic — suppressed and live — sorted by position. Allow
// directives are applied here, and a directive missing its reason is
// itself reported (as analyzer "allow"), so a waiver can never be
// silent about why.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := Pass{Analyzer: a, Prog: prog, diags: &diags}
		if a.Program {
			a.Run(&pass)
			continue
		}
		for _, pkg := range prog.Pkgs {
			pass := pass
			pass.Pkg = pkg
			a.Run(&pass)
		}
	}
	diags = append(diags, applyAllows(prog, diags, analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Unsuppressed filters a Run result down to the findings that should
// fail a gate.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// funcObj resolves a call expression to its static callee, if any:
// a package-level function, a method called on a concrete receiver,
// or a conversion-free identifier bound to a declared func. Dynamic
// calls (func values, interface methods) return nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function path.name
// (not a method).
func isPkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path &&
		fn.Name() == name && fn.Signature().Recv() == nil
}
