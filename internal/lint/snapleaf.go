package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SnapleafAnalyzer walks the struct type graph reachable from every
// Engine.SnapRoot registration site and flags fields the snapshot
// walker treats as leaves while they plausibly hold mutable state:
//
//   - chan fields: buffered elements and waiters are runtime state the
//     walker cannot capture, and channels have no place in the
//     single-threaded engine anyway;
//   - unsafe.Pointer fields: the walker restores the word but cannot
//     know the pointee's type, so nothing behind it is captured;
//   - func fields that some package assigns a closure over mutable
//     captures: the func word is restored bitwise, the captures are not.
//
// Plain func fields (callbacks over anchored receivers, stateless
// hooks) are legal and common — Ticker.fn is one — so func fields are
// only flagged when a store of a capture-mutating literal is found.
// The walk stops at interfaces (snaproot audits dynamic state) and at
// the leaves themselves.
var SnapleafAnalyzer = &Analyzer{
	Name:   "snapleaf",
	Doc:    "SnapRoot-reachable field is a snapshot-walker leaf holding mutable state",
	RunAll: runSnapleaf,
}

// snapRootSite is one Engine.SnapRoot call: the registration name (when
// it is a string literal), the static type of the root argument, and —
// when the argument is v or &v for a package-level variable — that
// variable, so snaproot can credit the registration to it.
type snapRootSite struct {
	pos     token.Pos
	name    string
	typ     types.Type
	rootVar *types.Var
}

// collectSnapRoots finds every SnapRoot call in the loaded packages.
func collectSnapRoots(pkgs []*Package) []snapRootSite {
	var sites []snapRootSite
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isSnapRootCall(info, call) || len(call.Args) < 2 {
					return true
				}
				s := snapRootSite{pos: call.Pos(), name: "?"}
				if lit, ok := unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s.name = lit.Value
				}
				if tv, ok := info.Types[call.Args[1]]; ok {
					s.typ = tv.Type
				}
				arg := unparen(call.Args[1])
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = unparen(u.X)
				}
				if id, ok := arg.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						s.rootVar = v
					}
				}
				if s.typ != nil {
					sites = append(sites, s)
				}
				return true
			})
		}
	}
	return sites
}

// fieldKey names a struct field portably across checker runs: the
// loader type-checks loaded and imported packages separately, so the
// same field is represented by distinct objects in different packages'
// views, but its declaration position is stable.
func fieldKey(fset *token.FileSet, fld *types.Var) string {
	p := fset.Position(fld.Pos())
	return fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, fld.Name())
}

func runSnapleaf(pass *AllPass) {
	sites := collectSnapRoots(pass.Pkgs)
	w := &leafWalker{fset: pass.Fset, seen: map[string]bool{}, flagged: map[string]bool{}}
	for i := range sites {
		w.site = &sites[i]
		w.walk(sites[i].typ)
	}

	// Hard leaves report immediately; func fields only when a package
	// stores a closure over mutable captures into them.
	for _, lf := range w.leaves {
		pass.Reportf(lf.field.Pos(),
			"replace it with walker-visible state (plain fields, slices, maps)",
			"%s-typed field %s.%s is a snapshot-walker leaf reachable from root %s: its state survives Fork rewinds",
			lf.kind, lf.owner, lf.field.Name(), lf.root)
	}
	reportFuncFieldStores(pass, w.funcFields)
}

type leafField struct {
	field *types.Var
	owner string
	root  string
	kind  string
}

type leafWalker struct {
	site    *snapRootSite
	fset    *token.FileSet
	seen    map[string]bool
	flagged map[string]bool
	leaves  []leafField
	// funcFields maps each reachable func-typed field (by fieldKey) to
	// the root it was first reached from, for the store scan.
	funcFields map[string]leafField
}

func (w *leafWalker) walk(t types.Type) {
	key := w.site.name + "|" + t.String()
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		w.walk(u.Elem())
	case *types.Slice:
		w.walk(u.Elem())
	case *types.Array:
		w.walk(u.Elem())
	case *types.Map:
		w.walk(u.Key())
		w.walk(u.Elem())
	case *types.Struct:
		owner := t.String()
		if named, ok := t.(*types.Named); ok {
			owner = named.Obj().Name()
			if named.Obj().Pkg() != nil {
				owner = named.Obj().Pkg().Name() + "." + owner
			}
		}
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			w.field(owner, fld)
		}
	case *types.Interface, *types.Signature, *types.Chan:
		// Terminal here: interfaces are snaproot's domain; bare func and
		// chan types only matter as struct fields, handled in field().
	}
}

func (w *leafWalker) field(owner string, fld *types.Var) {
	t := fld.Type()
	switch u := t.Underlying().(type) {
	case *types.Chan:
		w.flag(owner, fld, "chan")
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			w.flag(owner, fld, "unsafe.Pointer")
		}
	case *types.Signature:
		if w.funcFields == nil {
			w.funcFields = map[string]leafField{}
		}
		key := fieldKey(w.fset, fld)
		if _, ok := w.funcFields[key]; !ok {
			w.funcFields[key] = leafField{fld, owner, w.site.name, "func"}
		}
	default:
		w.walk(t)
	}
}

func (w *leafWalker) flag(owner string, fld *types.Var, kind string) {
	key := fieldKey(w.fset, fld)
	if w.flagged[key] {
		return
	}
	w.flagged[key] = true
	w.leaves = append(w.leaves, leafField{fld, owner, w.site.name, kind})
}

// reportFuncFieldStores scans every loaded package for assignments and
// composite literals that store a func literal into a SnapRoot-reachable
// func field, and flags the store when the literal captures mutable
// state (same classification snapcapture applies to scheduled closures).
func reportFuncFieldStores(pass *AllPass, funcFields map[string]leafField) {
	if len(funcFields) == 0 {
		return
	}
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			regions := fileFuncRegions(f)
			ast.Inspect(f, func(n ast.Node) bool {
				var lf leafField
				var lit *ast.FuncLit
				var pos token.Pos
				track := func(id *ast.Ident, rhs ast.Expr, at token.Pos) {
					v, ok := info.Uses[id].(*types.Var)
					if !ok || !v.IsField() {
						return
					}
					got, tracked := funcFields[fieldKey(pass.Fset, v)]
					if !tracked {
						return
					}
					if l, ok := unparen(rhs).(*ast.FuncLit); ok {
						lf, lit, pos = got, l, at
					}
				}
				switch st := n.(type) {
				case *ast.AssignStmt:
					if len(st.Lhs) != len(st.Rhs) {
						return true
					}
					for i, lhs := range st.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							track(sel.Sel, st.Rhs[i], st.Pos())
						}
					}
				case *ast.CompositeLit:
					for _, el := range st.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok {
							track(key, kv.Value, kv.Pos())
						}
					}
				}
				if lit == nil {
					return true
				}
				r := innermostRegion(regions, lit.Pos())
				if r == nil {
					return true
				}
				fs := newFuncScope(info, r.body)
				fs.capLits = fs.expand(lit)
				for _, issue := range fs.captureIssues(fs.expand(lit)) {
					pass.Reportf(pos,
						"hoist the captured state into the root struct and close over that",
						"closure stored in snapshot-reachable func field %s.%s (root %s) captures mutable %q: captures are walker-invisible, so Fork will not rewind it",
						lf.owner, lf.field.Name(), lf.root, issue.v.Name())
				}
				return true
			})
		}
	}
}
