package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TestOnly keeps the internal API down to what the program calls: an
// exported package-level func, type or var under an internal/ directory
// must have a use in some loaded non-test file outside its own
// declaration. Tests alone do not keep code alive; code that only tests
// call is deleted, and the tests that checked only it go with it.
//
// Uses are resolved by object through types.Info.Uses, not by name. A
// type's own declaration includes its methods, so receivers do not
// count as uses of their type, and a recursive call does not count as a
// use of its function. Methods and consts are never flagged: a method
// can exist to satisfy an interface, and an unused enum value still
// documents its type. Packages whose name ends in "test" are test
// support by Go convention and are skipped.
//
// Callers can live anywhere in the module, so the analyzer reports
// nothing unless the program covers every package directory of the
// module ("./..."); a subtree run such as specvet ./internal/stats stays
// quiet rather than flag everything its missing callers use.
var TestOnly = &Analyzer{
	Name:    "testonly",
	Doc:     "exported func, type or var under internal/ with no use outside tests",
	Program: true,
	Run:     runTestOnly,
}

func runTestOnly(pass *Pass) {
	prog := pass.Prog
	if !prog.coversModule() {
		return
	}
	used := map[types.Object]bool{}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					markUses(pkg.Info, decl, funcOwner(pkg.Info, decl), used)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						markUses(pkg.Info, spec, specOwner(pkg.Info, spec), used)
					}
				}
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		name := pkg.Types.Name()
		if !strings.Contains("/"+pkg.Path+"/", "/internal/") || strings.HasSuffix(name, "test") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, id := range scope.Names() {
			obj := scope.Lookup(id)
			switch obj.(type) {
			case *types.Func, *types.TypeName, *types.Var:
			default:
				continue
			}
			if obj.Exported() && !used[obj] {
				pass.Reportf(obj.Pos(),
					"%s.%s has no use outside tests; delete it, or call it from the program", name, id)
			}
		}
	}
}

// funcOwner returns the object a function declaration belongs to: the
// function itself, or a method's receiver type, so that neither a
// recursive call nor a receiver counts as a use.
func funcOwner(info *types.Info, decl *ast.FuncDecl) types.Object {
	fn, _ := info.Defs[decl.Name].(*types.Func)
	if fn == nil || fn.Signature().Recv() == nil {
		return fn
	}
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// specOwner returns the type or the single var a spec declares.
func specOwner(info *types.Info, spec ast.Spec) types.Object {
	switch spec := spec.(type) {
	case *ast.TypeSpec:
		return info.Defs[spec.Name]
	case *ast.ValueSpec:
		if len(spec.Names) == 1 {
			return info.Defs[spec.Names[0]]
		}
	}
	return nil
}

// markUses records every object referenced under node, except self.
func markUses(info *types.Info, node ast.Node, self types.Object, used map[types.Object]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && obj != self {
			used[obj] = true
		}
		return true
	})
}

// coversModule reports whether the program loaded every package
// directory of its module, so that every possible caller was seen.
func (p *Program) coversModule() bool {
	dirs, err := ExpandPatterns(p.root, []string{"./..."})
	if err != nil {
		return false
	}
	loaded := map[string]bool{}
	for _, pkg := range p.Pkgs {
		loaded[pkg.Dir] = true
	}
	for _, dir := range dirs {
		if !loaded[dir] {
			return false
		}
	}
	return true
}
