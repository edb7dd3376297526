package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// snapshot.go holds the machinery shared by the snapshot-safety analyzer
// family (snapcapture, snapleaf, snaproot). The contract they enforce is
// sim/snapwalk.go's: Engine.Snapshot deep-captures every piece of
// mutable state reachable from the engine and its SnapRoot-registered
// object graphs, but func values are leaves — a closure's captured
// variables are invisible to reflection, so mutable state that lives
// only in closure captures of engine-scheduled callbacks silently
// escapes a Fork rewind. The analyzers reduce that convention to
// mechanically checkable facts:
//
//   - which calls hand a callback to the engine (schedEntries),
//   - which variables a callback closes over (freeVars),
//   - which of those captures the walker could never restore
//     (funcScope.captureIssues),
//   - which object graphs are registered as roots (snapRootCalls).

// simPkgPath is the kernel package every entry point hangs off.
const simPkgPath = "repro/internal/sim"

// schedEntry names one callback parameter of an engine-scheduling API:
// closures passed there run as engine events, so their captures are
// subject to the snapshot-safety contract.
type schedEntry struct {
	pkg, recv, meth string
	cbArgs          []int
}

// schedEntries is the audited list of ways a closure becomes an engine
// event: the kernel's own scheduling surface, the tracer's causal
// scheduler, and the resilience executor/renewer ops (which are invoked
// from engine callbacks).
var schedEntries = []schedEntry{
	{simPkgPath, "Engine", "Schedule", []int{1}},
	{simPkgPath, "Engine", "At", []int{1}},
	{simPkgPath, "Engine", "NewTimer", []int{0}},
	{simPkgPath, "Engine", "NewTicker", []int{1}},
	{simPkgPath, "Engine", "NewWindow", []int{2, 3}},
	{"repro/internal/obs", "Tracer", "Schedule", []int{2}},
	{"repro/internal/resilience", "Executor", "Do", []int{3, 4}},
	{"repro/internal/resilience", "Executor", "doUntil", []int{3, 4}},
	{"repro/internal/resilience", "Renewer", "Track", []int{4}},
}

// methodOf resolves call's callee as a method, returning the declaring
// package path, the (pointer-stripped) receiver type name, and the
// method name.
func methodOf(info *types.Info, call *ast.CallExpr) (pkgPath, recvName, methName string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", "", "", false
	}
	return fn.Pkg().Path(), named.Obj().Name(), fn.Name(), true
}

// schedCallbackArgs returns the callback-argument expressions of call
// when call is one of the engine-scheduling entry points, nil otherwise.
func schedCallbackArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	pkgPath, recvName, methName, ok := methodOf(info, call)
	if !ok {
		return nil
	}
	for _, e := range schedEntries {
		if e.pkg == pkgPath && e.recv == recvName && e.meth == methName {
			var out []ast.Expr
			for _, i := range e.cbArgs {
				if i < len(call.Args) {
					out = append(out, call.Args[i])
				}
			}
			return out
		}
	}
	return nil
}

// isSnapRootCall reports whether call is Engine.SnapRoot.
func isSnapRootCall(info *types.Info, call *ast.CallExpr) bool {
	pkgPath, recvName, methName, isMeth := methodOf(info, call)
	return isMeth && pkgPath == simPkgPath && recvName == "Engine" && methName == "SnapRoot"
}

// freeVars returns the variables used inside lit but declared outside
// it: the closure's captures, in first-use order. Package-level
// variables (snaproot's concern) and struct fields (reached through a
// captured base, which is itself a free variable) are excluded.
func freeVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal: event-local
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// funcScope is the analysis context for the closures of one function
// body (a FuncDecl body or an enclosing FuncLit body): the local
// func-literal bindings visible in it, and the set of callback literals
// whose interiors must not count as anchoring uses.
type funcScope struct {
	info *types.Info
	body ast.Node
	// localFns maps func-typed local variables to the literal bound to
	// them (x := func(){...}; var x = func(){...}; x = func(){...}),
	// enabling the one-call-level-deep analysis of named local closures.
	localFns map[*types.Var]*ast.FuncLit
	// capLits are the callback literals under audit: a use of a variable
	// inside one of them keeps the variable captive, so it does not count
	// as anchoring the variable to walker-reachable state.
	capLits []*ast.FuncLit
}

func newFuncScope(info *types.Info, body ast.Node) *funcScope {
	fs := &funcScope{info: info, body: body, localFns: map[*types.Var]*ast.FuncLit{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lit, ok := unparen(st.Rhs[i]).(*ast.FuncLit)
				if !ok {
					continue
				}
				v, ok := fs.objOf(id).(*types.Var)
				if ok && fs.localFns[v] == nil {
					fs.localFns[v] = lit
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if i >= len(st.Values) {
					break
				}
				lit, ok := unparen(st.Values[i]).(*ast.FuncLit)
				if !ok {
					continue
				}
				v, ok := fs.info.Defs[id].(*types.Var)
				if ok && fs.localFns[v] == nil {
					fs.localFns[v] = lit
				}
			}
		}
		return true
	})
	return fs
}

// objOf resolves an identifier through Uses then Defs.
func (fs *funcScope) objOf(id *ast.Ident) types.Object {
	if o := fs.info.Uses[id]; o != nil {
		return o
	}
	return fs.info.Defs[id]
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// expand returns lit plus every local func literal it references, one
// call level deep: a scheduled closure that invokes (or re-schedules) a
// named local closure shares that closure's captures.
func (fs *funcScope) expand(lit *ast.FuncLit) []*ast.FuncLit {
	out := []*ast.FuncLit{lit}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := fs.info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if l := fs.localFns[v]; l != nil && l != lit {
			for _, have := range out {
				if have == l {
					return true
				}
			}
			out = append(out, l)
		}
		return true
	})
	return out
}

func (fs *funcScope) insideCapLit(pos token.Pos) bool {
	for _, cl := range fs.capLits {
		if cl.Pos() <= pos && pos <= cl.End() {
			return true
		}
	}
	return false
}

// captureIssue is one walker-invisible capture of a scheduled closure.
type captureIssue struct {
	v    *types.Var
	kind string // "mutated" or "escaping"
}

// captureIssues classifies the free variables of the callback literals
// (a scheduled closure plus its depth-1 local closures) against the
// snapshot walker's reach:
//
//   - "mutated": a captured local the callbacks rebind (n++, x = ...),
//     or a value-typed captured local whose memory they write through a
//     field/index path. Closure variables live on the heap cell shared
//     with the enclosing function, which reflection cannot see, so a
//     Fork does not rewind them.
//   - "escaping": a pointer/map/slice created locally (x := &T{...},
//     make, new, a constructor call, Engine.ForkRand) that is never
//     anchored to anything outside the callbacks — no store into a
//     field/element, no pass to another call (SnapRoot included), no
//     return. Its pointee is reachable ONLY through the func value, so
//     the walker never captures it.
//
// Variables whose address is taken outside the callbacks are skipped:
// the alias may anchor them, and position reasoning says nothing more.
func (fs *funcScope) captureIssues(lits []*ast.FuncLit) []captureIssue {
	var issues []captureIssue
	seen := map[*types.Var]bool{}
	for _, lit := range lits {
		for _, v := range freeVars(fs.info, lit) {
			if seen[v] {
				continue
			}
			seen[v] = true
			if fs.localFns[v] != nil {
				continue // the named-closure binding itself (recursion idiom)
			}
			if kernelType(v.Type()) {
				continue // the engine and its handles self-capture
			}
			if fs.addrTakenOutside(v) {
				continue
			}
			if fs.writtenInside(v, lits) {
				issues = append(issues, captureIssue{v, "mutated"})
				continue
			}
			if fs.escapingCreation(v) {
				issues = append(issues, captureIssue{v, "escaping"})
			}
		}
	}
	return issues
}

// writtenInside reports whether any of the callback literals writes v:
// directly for any kind, or through a field/index path when v is a
// value type (writing through a captured pointer mutates the pointee,
// which is walker-reachable if anchored — the escaping check's job).
func (fs *funcScope) writtenInside(v *types.Var, lits []*ast.FuncLit) bool {
	valueKind := !isRefKind(v.Type())
	for _, lit := range lits {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if fs.writesVar(lhs, v, valueKind) {
						found = true
					}
				}
			case *ast.IncDecStmt:
				if fs.writesVar(st.X, v, valueKind) {
					found = true
				}
			case *ast.RangeStmt:
				if st.Tok == token.ASSIGN {
					if st.Key != nil && fs.writesVar(st.Key, v, valueKind) {
						found = true
					}
					if st.Value != nil && fs.writesVar(st.Value, v, valueKind) {
						found = true
					}
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// writesVar reports whether assigning through lhs writes variable v:
// a plain identifier is a direct rebind; a selector/index path rooted
// at v counts only when rooted (value-typed v).
func (fs *funcScope) writesVar(lhs ast.Expr, v *types.Var, rooted bool) bool {
	if id, ok := lhs.(*ast.Ident); ok {
		return fs.objOf(id) == v
	}
	if !rooted {
		return false
	}
	id := rootIdent(lhs)
	return id != nil && fs.objOf(id) == v
}

// kernelType reports whether t (possibly behind pointers) is declared in
// the sim kernel package. Captured engines, events, tickers, and windows
// are not snapshot hazards: Snapshot captures the kernel natively.
func kernelType(t types.Type) bool {
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == simPkgPath
}

// isRefKind reports whether t is a reference kind whose pointee/backing
// store the walker follows separately (so writes through it are the
// anchoring question, not the capture question).
func isRefKind(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// addrTakenOutside reports whether &v appears in the scope outside the
// callback literals.
func (fs *funcScope) addrTakenOutside(v *types.Var) bool {
	taken := false
	ast.Inspect(fs.body, func(n ast.Node) bool {
		if taken {
			return false
		}
		u, ok := n.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return true
		}
		if id, ok := unparen(u.X).(*ast.Ident); ok && fs.objOf(id) == v && !fs.insideCapLit(u.Pos()) {
			taken = true
		}
		return true
	})
	return taken
}

// escapingCreation reports whether v is fresh heap state born in this
// scope that never escapes it except through the callback literals.
func (fs *funcScope) escapingCreation(v *types.Var) bool {
	switch v.Type().Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice:
	default:
		return false
	}
	return fs.locallyCreated(v) && !fs.anchored(v)
}

// locallyCreated reports whether v's defining statement allocates fresh
// state the walker could not already know about: &T{...}, make, new, a
// composite literal, a constructor from OUTSIDE the module (rand.New is
// the chaosRun-bug shape), or Engine.ForkRand (a fresh deterministic
// stream). Module-internal constructors are trusted to anchor their
// result themselves — core.Build registers the federation it returns —
// so their results don't count, and neither do parameters, range
// variables, method-call results, or copies of existing expressions.
func (fs *funcScope) locallyCreated(v *types.Var) bool {
	var rhs ast.Expr
	ast.Inspect(fs.body, func(n ast.Node) bool {
		if rhs != nil {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && fs.info.Defs[id] == v {
					rhs = st.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if fs.info.Defs[id] == v && i < len(st.Values) && len(st.Values) == len(st.Names) {
					rhs = st.Values[i]
				}
			}
		}
		return true
	})
	switch e := unparen(rhs).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.AND
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		switch fn := unparen(e.Fun).(type) {
		case *ast.Ident:
			if b, ok := fs.info.Uses[fn].(*types.Builtin); ok {
				return b.Name() == "make" || b.Name() == "new"
			}
			if f, ok := fs.info.Uses[fn].(*types.Func); ok {
				return foreignConstructor(f, v)
			}
		case *ast.SelectorExpr:
			if pkgPath, recvName, methName, ok := methodOf(fs.info, e); ok {
				return pkgPath == simPkgPath && recvName == "Engine" && methName == "ForkRand"
			}
			if f, ok := fs.info.Uses[fn.Sel].(*types.Func); ok {
				return foreignConstructor(f, v)
			}
		}
	}
	return false
}

// foreignConstructor reports whether f is a plain function from outside
// v's module (stdlib, vendored code) — its result is fresh state with no
// chance of having been anchored on the way out. Module-internal
// constructors are trusted to anchor what needs anchoring (core.Build
// SnapRoots the federation it returns), and methods return state their
// receiver already owns.
func foreignConstructor(f *types.Func, v *types.Var) bool {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil || f.Pkg() == nil || v.Pkg() == nil {
		return false
	}
	return firstPathSeg(f.Pkg().Path()) != firstPathSeg(v.Pkg().Path())
}

func firstPathSeg(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// anchored reports whether v is attached to anything outside the
// callback literals: passed to a call (SnapRoot included), stored into
// a field/element/package variable, returned, sent, or placed in a
// composite literal. Any of these makes the pointee plausibly reachable
// by the walker (or somebody else's responsibility); none of them
// leaves the state reachable only through the scheduled closure.
func (fs *funcScope) anchored(v *types.Var) bool {
	found := false
	isV := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && fs.objOf(id) == v
	}
	ast.Inspect(fs.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.CallExpr:
			for _, a := range st.Args {
				if isV(a) && !fs.insideCapLit(a.Pos()) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if !isV(rhs) || fs.insideCapLit(rhs.Pos()) || i >= len(st.Lhs) {
					continue
				}
				switch lhs := st.Lhs[i].(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					_ = lhs
					found = true
				case *ast.Ident:
					if o, ok := fs.objOf(lhs).(*types.Var); ok && o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
						found = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if isV(r) && !fs.insideCapLit(r.Pos()) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if isV(e) && !fs.insideCapLit(e.Pos()) {
					found = true
				}
			}
		case *ast.IndexExpr:
			// Used as a map key (n.calls[c] = ...): map keys are walked
			// by the snapshot walker, so the pointee is reachable.
			if isV(st.Index) && !fs.insideCapLit(st.Index.Pos()) {
				found = true
			}
		case *ast.SendStmt:
			if isV(st.Value) && !fs.insideCapLit(st.Value.Pos()) {
				found = true // enginerace's problem; not unreachable state
			}
		}
		return true
	})
	return found
}

// funcRegions collects every function body in a file with its position
// range, for innermost-enclosure lookup.
type funcRegion struct {
	lo, hi token.Pos
	body   *ast.BlockStmt
}

func fileFuncRegions(f *ast.File) []funcRegion {
	var out []funcRegion
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				out = append(out, funcRegion{v.Body.Pos(), v.Body.End(), v.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcRegion{v.Body.Pos(), v.Body.End(), v.Body})
		}
		return true
	})
	return out
}

// innermostRegion returns the smallest function body containing pos.
func innermostRegion(regions []funcRegion, pos token.Pos) *funcRegion {
	var best *funcRegion
	for i := range regions {
		r := &regions[i]
		if r.lo <= pos && pos <= r.hi && (best == nil || r.hi-r.lo < best.hi-best.lo) {
			best = r
		}
	}
	return best
}
