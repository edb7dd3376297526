package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SnaprootAnalyzer is the cross-package closure of the snapshot-safety
// contract: every piece of mutable state that engine events touch must
// be reachable from some Engine.SnapRoot registration — its own, or the
// core.Build federation mega-root. snapcapture proves scheduled closures
// don't smuggle state in captures; snaproot proves the state they do
// touch (named struct state through captured pointers and receivers,
// package-level variables) is in the walker's reach at all.
//
// Mechanics: the analyzer collects every SnapRoot call in the loaded
// packages, walks the static type graph of each root argument (fields,
// pointers, slices/arrays, map keys and values; non-empty interface
// fields expand to every loaded named type implementing them) into a
// REACHABLE set, then audits every engine-scheduled callback in
// internal/ packages. A callback's mutation targets are the named types
// behind field/index writes through captured variables and receivers,
// the receiver types of methods it calls (one level deep), and any
// package-level variables it writes. Targets declared in the sim kernel
// are exempt (Snapshot captures the kernel natively). If no SnapRoot
// call is in view at all the analyzer stays silent: reachability cannot
// be judged on a partial load.
var SnaprootAnalyzer = &Analyzer{
	Name:   "snaproot",
	Doc:    "engine events mutate state not reachable from any SnapRoot registration",
	RunAll: runSnaproot,
}

type methodInfo struct {
	decl *ast.FuncDecl
	info *types.Info
}

// snaprootCtx keys every cross-package fact by stable strings
// (package path + name), never by types.Object identity: the loader
// type-checks directly-loaded packages and imported packages as
// separate checker runs, so the "same" type is represented by distinct
// objects depending on which package's Info resolved it.
type snaprootCtx struct {
	pass       *AllPass
	reachable  map[string]bool // objKey of reachable named types
	rootVars   map[string]bool // objKey of SnapRoot'd package variables
	loadedPkgs map[string]bool
	funcDecls  map[string]*methodInfo // funcKey -> declaration
	seenTypes  map[string]bool
	allNamed   []*types.Named
}

// objKey names a package-scope object portably across checker runs.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// funcKey names a function or method portably across checker runs.
func funcKey(fn *types.Func) string {
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	return objKey(fn) + "(" + recv + ")"
}

func runSnaproot(pass *AllPass) {
	c := &snaprootCtx{
		pass:       pass,
		reachable:  map[string]bool{},
		rootVars:   map[string]bool{},
		loadedPkgs: map[string]bool{},
		funcDecls:  map[string]*methodInfo{},
		seenTypes:  map[string]bool{},
	}
	sites := collectSnapRoots(pass.Pkgs)
	if len(sites) == 0 {
		return // no registrations in view: partial load, cannot judge
	}
	for _, pkg := range pass.Pkgs {
		c.loadedPkgs[pkg.Path] = true
		c.indexPkg(pkg)
	}
	for _, s := range sites {
		c.grow(s.typ)
		if s.rootVar != nil {
			c.rootVars[objKey(s.rootVar)] = true
		}
	}

	// Audit scheduling packages in path order so the first finding per
	// target is deterministic.
	ordered := append([]*Package(nil), pass.Pkgs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Path < ordered[j].Path })
	flagged := map[string]bool{}
	for _, pkg := range ordered {
		if !strings.Contains(pkg.Path, "/internal/") || pkg.Path == simPkgPath {
			continue
		}
		c.auditPkg(pkg, flagged)
	}
}

// indexPkg records every function/method declaration (for depth-1 body
// scans) and every named type (for interface expansion).
func (c *snaprootCtx) indexPkg(pkg *Package) {
	info := pkg.Info
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				c.allNamed = append(c.allNamed, named)
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if v, ok := n.(*ast.FuncDecl); ok {
				if fn, ok := info.Defs[v.Name].(*types.Func); ok && v.Body != nil {
					c.funcDecls[funcKey(fn)] = &methodInfo{decl: v, info: info}
				}
			}
			return true
		})
	}
}

// grow adds t's static type graph to the REACHABLE set.
func (c *snaprootCtx) grow(t types.Type) {
	if c.seenTypes[t.String()] {
		return
	}
	c.seenTypes[t.String()] = true
	if named, ok := t.(*types.Named); ok {
		c.reachable[objKey(named.Obj())] = true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		c.grow(u.Elem())
	case *types.Slice:
		c.grow(u.Elem())
	case *types.Array:
		c.grow(u.Elem())
	case *types.Map:
		c.grow(u.Key())
		c.grow(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.grow(u.Field(i).Type())
		}
	case *types.Interface:
		if u.Empty() {
			return // `any` would make everything reachable; vacuous
		}
		for _, named := range c.allNamed {
			if types.Implements(named, u) || types.Implements(types.NewPointer(named), u) {
				c.grow(named)
			}
		}
	}
}

// auditPkg flags the first scheduling site per unregistered mutation
// target in pkg.
func (c *snaprootCtx) auditPkg(pkg *Package, flagged map[string]bool) {
	info := pkg.Info
	for _, f := range pkg.Files {
		regions := fileFuncRegions(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			cbs := schedCallbackArgs(info, call)
			if len(cbs) == 0 {
				return true
			}
			r := innermostRegion(regions, call.Pos())
			if r == nil {
				return true
			}
			fs := newFuncScope(info, r.body)
			for _, cb := range cbs {
				for _, target := range c.callbackTargets(fs, cb) {
					if flagged[objKey(target)] {
						continue
					}
					flagged[objKey(target)] = true
					c.report(cb.Pos(), pkg.Path, target)
				}
			}
			return true
		})
	}
}

// callbackTargets resolves a callback expression and collects its
// mutation targets: named types and package variables the event writes
// that the snapshot walker must be able to reach.
func (c *snaprootCtx) callbackTargets(fs *funcScope, cb ast.Expr) []types.Object {
	var targets []types.Object
	seen := map[types.Object]bool{}
	add := func(obj types.Object) {
		if obj == nil || seen[obj] {
			return
		}
		pkg := obj.Pkg()
		if pkg == nil || pkg.Path() == simPkgPath {
			return // kernel state is snapshotted natively
		}
		if !c.loadedPkgs[pkg.Path()] {
			return // out of view
		}
		if c.reachable[objKey(obj)] || c.rootVars[objKey(obj)] {
			return
		}
		seen[obj] = true
		targets = append(targets, obj)
	}

	switch e := unparen(cb).(type) {
	case *ast.FuncLit:
		for _, lit := range fs.expand(e) {
			c.scanBody(fs.info, lit.Body, lit.Pos(), lit.End(), 0, add)
		}
	case *ast.Ident:
		if v, ok := fs.info.Uses[e].(*types.Var); ok {
			if lit := fs.localFns[v]; lit != nil {
				for _, l := range fs.expand(lit) {
					c.scanBody(fs.info, l.Body, l.Pos(), l.End(), 0, add)
				}
			}
		} else if fn, ok := fs.info.Uses[e].(*types.Func); ok {
			c.scanFunc(fn, add)
		}
	case *ast.SelectorExpr:
		// Method value: the event runs fn on the selected receiver.
		if fn, ok := fs.info.Uses[e.Sel].(*types.Func); ok {
			c.scanFunc(fn, add)
		}
	}
	return targets
}

// scanFunc scans a named function or method body for mutation targets:
// writes through its receiver and parameters (state that outlives the
// call) and package-level variables.
func (c *snaprootCtx) scanFunc(fn *types.Func, add func(types.Object)) {
	mi := c.funcDecls[funcKey(fn)]
	if mi == nil {
		return // declared outside the loaded packages
	}
	body := mi.decl.Body
	c.scanBody(mi.info, body, body.Pos(), body.End(), 1, add)
}

// scanBody walks one callback body. Writes whose root variable is
// declared inside [lo, hi] are event-local and ignored; writes through
// captured variables, receivers, or parameters target the root's named
// type; writes to package variables target the variable. Method calls
// on non-local roots recurse one level (depth 0 → 1 only).
func (c *snaprootCtx) scanBody(info *types.Info, body ast.Node, lo, hi token.Pos, depth int, add func(types.Object)) {
	addWrite := func(lhs ast.Expr) {
		id := rootIdent(lhs)
		if id == nil {
			return
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			v, ok = info.Defs[id].(*types.Var)
			if !ok {
				return
			}
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			add(v) // package-level variable
			return
		}
		if _, plain := unparen(lhs).(*ast.Ident); plain {
			return // local rebind: snapcapture's domain
		}
		if v.Pos() >= lo && v.Pos() <= hi {
			return // event-local state dies with the event
		}
		t := v.Type()
		for {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok {
			add(named.Obj())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				addWrite(lhs)
			}
		case *ast.IncDecStmt:
			addWrite(st.X)
		case *ast.RangeStmt:
			if st.Tok == token.ASSIGN {
				if st.Key != nil {
					addWrite(st.Key)
				}
				if st.Value != nil {
					addWrite(st.Value)
				}
			}
		case *ast.CallExpr:
			if depth >= 1 {
				return true
			}
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() == nil {
				return true // package function call: not followed
			}
			if id := rootIdent(sel.X); id != nil {
				if v, ok := info.Uses[id].(*types.Var); ok && v.Pos() >= lo && v.Pos() <= hi {
					return true // method on event-local state
				}
			}
			c.scanFunc(fn, add)
		}
		return true
	})
}

func (c *snaprootCtx) report(pos token.Pos, pkgPath string, target types.Object) {
	kind := "type"
	if _, ok := target.(*types.Var); ok {
		kind = "package variable"
	}
	c.pass.Reportf(pos,
		"register it with Engine.SnapRoot or hang it off the core.Build federation root",
		"engine event scheduled in %s mutates %s %s.%s, which is not reachable from any SnapRoot registration: Fork will not rewind it",
		pkgPath, kind, target.Pkg().Name(), target.Name())
}
