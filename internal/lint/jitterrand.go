package lint

import (
	"go/ast"
	"go/types"
)

// JitterrandAnalyzer forbids building resilience machinery as composite
// literals outside its own package. A jittered backoff is only
// deterministic when its jitter draws from an injected seeded stream on
// the engine clock; NewKit enforces exactly that (and panics on a nil
// source), while a literal &resilience.Executor{…} zero-values the
// unexported rand and engine fields — a retry loop that panics (or
// silently never jitters) deep inside a recovery path, the worst
// possible place to find out.
var JitterrandAnalyzer = &Analyzer{
	Name: "jitterrand",
	Doc:  "forbid composite-literal construction of resilience.Executor/Renewer/Kit; use resilience.NewKit (injected seeded rand, engine clock)",
	Run:  runJitterrand,
}

// resiliencePath is the guarded package; its own files (constructors,
// tests) legitimately build the literals.
const resiliencePath = "repro/internal/resilience"

var jitterrandGuarded = map[string]bool{
	"Executor": true,
	"Renewer":  true,
	"Kit":      true,
}

func runJitterrand(pass *Pass) {
	if pass.Pkg.Path == resiliencePath {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := info.Types[lit]
			if !ok {
				return true
			}
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj.Pkg() == nil || obj.Pkg().Path() != resiliencePath || !jitterrandGuarded[obj.Name()] {
				return true
			}
			pass.Reportf(lit.Pos(),
				"construct via resilience.NewKit (injected seeded rand and engine clock)",
				"resilience.%s built as a composite literal carries no rand source for its jittered backoff", obj.Name())
			return true
		})
	}
}
