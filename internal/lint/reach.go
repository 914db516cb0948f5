package lint

import (
	"go/ast"
	"go/types"
)

// registryPath is the package whose Register calls define the
// analyzers' entry points.
const registryPath = "repro/internal/analysis"

var registerFuncs = map[string]bool{
	"Register":       true,
	"RegisterParams": true,
	"RegisterStatic": true,
}

// reachBody is one function body in the reachable set: the node whose
// subtree to inspect (a FuncDecl or an entry FuncLit), the package
// whose Info resolves it, and the name used in diagnostics.
type reachBody struct {
	node ast.Node
	pkg  *Package
	name string
}

type reachability struct {
	bodies []reachBody
	// seen guards named functions; entry literals cannot repeat.
	seen map[*types.Func]bool
}

// Reachable computes (once, memoized on the program) the set of
// function bodies reachable from registered analysis funcs. An entry
// point is any func literal or named func passed to
// analysis.Register/RegisterParams/RegisterStatic — located by type,
// not position, because trailing RegOptions (analysis.Reads(...)) are
// also func-typed arguments and must not shadow the entry — and any
// text renderer passed to an analysis.Text option of such a call, since
// the report's bytes are served output too. From each entry the
// walk follows every *reference* to a module-declared function — call
// position or not, so a metric func stored in a table and invoked
// through a variable still counts — across package boundaries.
// Function literals nested inside a reachable body are part of its
// subtree and need no separate handling; dynamic calls with no static
// callee (interface methods, func-typed fields) are the walk's known
// blind spot, narrowed by the reference rule above.
func (p *Program) Reachable() []reachBody {
	if p.reach != nil {
		return p.reach.bodies
	}
	r := &reachability{seen: map[*types.Func]bool{}}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcObj(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != registryPath ||
					!registerFuncs[fn.Name()] {
					return true
				}
				for _, arg := range call.Args {
					if isAnalysisFuncArg(pkg.Info, arg) {
						r.addEntry(p, pkg, arg)
					} else if opt, ok := ast.Unparen(arg).(*ast.CallExpr); ok &&
						isPkgFunc(funcObj(pkg.Info, opt), registryPath, "Text") {
						for _, fn := range opt.Args {
							r.addEntry(p, pkg, fn)
						}
					}
				}
				return true
			})
		}
	}
	p.reach = r
	return r.bodies
}

// addEntry admits one Register call's func argument into the set. A
// func built by a call (a renderer constructor such as
// trendText("W/socket")) admits every module function the call names.
func (r *reachability) addEntry(p *Program, pkg *Package, arg ast.Expr) {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		r.bodies = append(r.bodies, reachBody{node: arg, pkg: pkg, name: "registered func literal"})
		r.walk(p, pkg, arg)
	case *ast.CallExpr:
		r.walk(p, pkg, arg)
	default:
		if fn := exprFunc(pkg.Info, arg); fn != nil {
			r.addFunc(p, fn)
		}
	}
}

// addFunc admits a named function and recurses into its body if the
// module declares it.
func (r *reachability) addFunc(p *Program, fn *types.Func) {
	if r.seen[fn] {
		return
	}
	r.seen[fn] = true
	decl, pkg, ok := p.DeclOf(fn)
	if !ok {
		return // stdlib or bodiless: nothing to inspect
	}
	r.bodies = append(r.bodies, reachBody{node: decl, pkg: pkg, name: fn.FullName()})
	r.walk(p, pkg, decl)
}

// walk scans one admitted body for references to further module
// functions.
func (r *reachability) walk(p *Program, pkg *Package, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			if _, _, declared := p.DeclOf(fn); declared {
				r.addFunc(p, fn)
			}
		}
		return true
	})
}

// isAnalysisFuncArg reports whether one Register-call argument is the
// analysis func itself. The func is not positionally identifiable:
// registrations may end with RegOptions (analysis.Reads(...)), which
// are func-typed values too. So the filter is by type — any argument
// whose type is a function signature other than analysis.RegOption is
// an entry point; names, descriptions, and schemas fall out naturally.
func isAnalysisFuncArg(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if _, ok := tv.Type.Underlying().(*types.Signature); !ok {
		return false
	}
	if named, ok := tv.Type.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil &&
			obj.Pkg().Path() == registryPath && obj.Name() == "RegOption" {
			return false
		}
	}
	return true
}

// exprFunc resolves an expression naming a function (identifier,
// pkg.Func selector, or method expression) to its object.
func exprFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}
