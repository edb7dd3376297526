// Package lint is gridlab's determinism and correctness analyzer suite.
//
// The simulator's evidentiary value rests on a reproducibility contract:
// the same seed must produce the same trace byte-for-byte. That contract
// is trivially broken by a stray wall-clock read, a draw from the global
// math/rand stream, or a range over a map whose iteration order leaks
// into a trace or an accumulated value. This package mechanically
// enforces the contract with a small, self-contained static-analysis
// driver built only on the standard library (go/parser, go/ast,
// go/token, go/types) — no external module dependencies.
//
// The loader half of the package discovers packages under a module,
// parses them, and type-checks them with a custom importer: paths inside
// the module are resolved and checked recursively from source; standard
// library paths are delegated to go/importer's source-mode compiler
// importer. This keeps the tool runnable with nothing but a Go
// toolchain and the repository checkout.
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

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path, e.g. "repro/internal/sim"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds soft type-check errors. Analysis proceeds with
	// partial type information; the driver reports these separately so a
	// broken tree fails loudly rather than silently passing.
	TypeErrors []error
}

// Loader discovers and type-checks packages under a single module.
type Loader struct {
	Fset *token.FileSet

	modPath string
	modDir  string
	std     types.Importer
	cache   map[string]*types.Package
}

// NewLoader returns a loader rooted at the module containing dir (found
// by walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: modPath,
		modDir:  modDir,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
	}, nil
}

func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: go.mod in %s has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the given patterns to packages. A pattern is either a
// directory path (absolute, or relative to the loader's module root),
// optionally ending in "/..." for a recursive walk, or an import path
// inside the module. Directories named testdata or vendor, and names
// starting with "." or "_", are skipped during walks, matching go tool
// conventions.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !dirSet[d] {
			dirSet[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" || pat == "." {
				pat = l.modDir
			}
		}
		if strings.HasPrefix(pat, l.modPath) {
			rel := strings.TrimPrefix(strings.TrimPrefix(pat, l.modPath), "/")
			pat = filepath.Join(l.modDir, rel)
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.modDir, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for _, dir := range dirs {
		names, err := goFilesIn(dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			continue
		}
		pkg, err := l.loadFiles(l.importPathFor(dir), dir, names)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// goFilesIn lists a directory's non-test .go files, sorted.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") &&
			!strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// loadFiles parses and type-checks one package unit.
func (l *Loader) loadFiles(path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Info: info}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg.Types = tpkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths are checked
// recursively from source; everything else (the standard library) is
// delegated to the source-mode compiler importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		dir := filepath.Join(l.modDir, rel)
		names, err := goFilesIn(dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		var files []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.Fset, files, nil)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}
