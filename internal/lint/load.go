package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loader type-checks module packages from source, once each, through a
// single importer instance so type objects keep identity across
// packages (the cross-package call-graph walks depend on it). Standard
// library imports are delegated to the stdlib source importer, which
// works offline from GOROOT.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory (absolute)
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// Load parses and type-checks the packages in dirs (absolute or
// root-relative directories under the module root) plus everything
// they import inside the module, and returns the resulting Program.
// Only non-test files are loaded; see the package comment for why.
func Load(root string, dirs []string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		root:    root,
		module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(root, dir)
		}
		if _, err := ld.loadDir(dir); err != nil {
			return nil, err
		}
	}
	prog := &Program{Fset: fset, root: root}
	for _, pkg := range ld.pkgs {
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	prog.indexDecls()
	return prog, nil
}

// ExpandPatterns resolves package patterns the way the go tool does,
// scoped to the module: "./..." and "dir/..." walk for directories
// containing non-test .go files (skipping testdata, hidden directories,
// and bin), anything else names one package directory. Returned paths
// are absolute.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			recursive = true
			base = strings.TrimSuffix(rest, string(filepath.Separator))
			base = strings.TrimSuffix(base, "/")
			if base == "" || base == "." {
				base = root
			}
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "bin") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// ModuleRoot walks up from dir to the enclosing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Import implements types.Importer: module-internal paths load (or
// recall) their package from source; everything else is stdlib.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == ld.module || strings.HasPrefix(path, ld.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.module), "/")
		pkg, err := ld.loadDir(filepath.Join(ld.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) loadDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return nil, err
	}
	path := ld.module
	if rel != "." {
		path = ld.module + "/" + filepath.ToSlash(rel)
	}
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	ld.pkgs[path] = pkg
	return pkg, nil
}
