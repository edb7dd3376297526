package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// EngineraceAnalyzer forbids sharing single-goroutine simulation state
// across goroutines. A sim.Engine, its *rand.Rand streams, and the
// faultlab report structs they populate are all unsynchronized by
// design: determinism comes from one goroutine driving one engine with
// one rng stream in program order. Handing any of them to a goroutine —
// captured by a go func literal, passed as a go-call argument, or sent
// over a channel — reintroduces scheduler-dependent interleaving, and
// the byte-identical-replay contract dies quietly. internal/perf is the
// one sanctioned crossing point: its executor gives each run a private
// engine and rng and writes results into per-run slots, so that subtree
// is exempt.
var EngineraceAnalyzer = &Analyzer{
	Name: "enginerace",
	Doc:  "forbid goroutine capture or channel transfer of sim.Engine, rand.Rand, or faultlab report state outside internal/perf",
	Run:  runEnginerace,
}

// perfPath is the sanctioned parallelism subtree; its packages own the
// one-engine-per-worker discipline the rest of the repo must not
// improvise.
const perfPath = "repro/internal/perf"

const engineraceHint = "give each goroutine a private engine and rng via internal/perf's executor (one run per slot, reduced in grid order)"

// engineraceGuarded maps (package path, type name) to the display name
// used in diagnostics. Pointers to these types are deref'd first, so
// both *sim.Engine and sim.Engine values match.
var engineraceGuarded = map[[2]string]string{
	{"repro/internal/sim", "Engine"}:           "sim.Engine",
	{"math/rand", "Rand"}:                      "rand.Rand",
	{"repro/internal/faultlab", "Report"}:      "faultlab.Report",
	{"repro/internal/faultlab", "SweepResult"}: "faultlab.SweepResult",
}

func runEnginerace(pass *Pass) {
	if path := pass.Pkg.Path; path == perfPath || strings.HasPrefix(path, perfPath+"/") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				checkEngineraceGo(pass, info, st)
			case *ast.SendStmt:
				if name, ok := guardedExpr(info, st.Value); ok {
					pass.Reportf(st.Value.Pos(), engineraceHint,
						"%s %s sent over a channel leaves the single-goroutine discipline", name, engineraceExprName(st.Value))
				}
			}
			return true
		})
	}
}

// checkEngineraceGo flags the three ways a go statement smuggles guarded
// state to another goroutine: as the method receiver of the spawned
// call, as a call argument, or as a free variable of a go func literal.
func checkEngineraceGo(pass *Pass, info *types.Info, st *ast.GoStmt) {
	call := st.Call
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if name, ok := guardedExpr(info, sel.X); ok {
			pass.Reportf(sel.X.Pos(), engineraceHint,
				"%s %s is the receiver of a goroutine method call", name, engineraceExprName(sel.X))
		}
	}
	for _, arg := range call.Args {
		if name, ok := guardedExpr(info, arg); ok {
			pass.Reportf(arg.Pos(), engineraceHint,
				"%s %s passed as a goroutine argument", name, engineraceExprName(arg))
		}
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the literal: goroutine-private
		}
		if name, guarded := guardedType(obj.Type()); guarded {
			seen[obj] = true
			pass.Reportf(id.Pos(), engineraceHint,
				"%s %s captured by a go func literal", name, id.Name)
		}
		return true
	})
}

func guardedExpr(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	return guardedType(tv.Type)
}

func guardedType(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	name, ok := engineraceGuarded[[2]string{obj.Pkg().Path(), obj.Name()}]
	return name, ok
}

func engineraceExprName(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "value"
}
