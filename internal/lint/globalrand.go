package lint

import (
	"go/ast"
)

// GlobalrandAnalyzer forbids draws from math/rand's package-level
// (globally seeded) stream anywhere in the repository. The global
// stream is shared mutable state: any draw in one subsystem perturbs
// every other subsystem's sequence, and Go seeds it per-process, so two
// runs of "the same" scenario diverge. All randomness must come from an
// injected *rand.Rand built with rand.New(rand.NewSource(seed)) —
// typically a stream forked via sim.Engine.ForkRand().
// Constructors (rand.New, rand.NewSource, rand.NewZipf) are allowed:
// they are exactly how the contract is satisfied.
var GlobalrandAnalyzer = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid package-level math/rand draws (rand.Intn, rand.Float64, ...); inject a seeded *rand.Rand",
	Run:  runGlobalrand,
}

var globalrandBanned = map[string]bool{
	"Int":         true,
	"Intn":        true,
	"Int31":       true,
	"Int31n":      true,
	"Int63":       true,
	"Int63n":      true,
	"Uint32":      true,
	"Uint64":      true,
	"Float32":     true,
	"Float64":     true,
	"ExpFloat64":  true,
	"NormFloat64": true,
	"Perm":        true,
	"Shuffle":     true,
	"Read":        true,
	"Seed":        true,
}

func runGlobalrand(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFunc(pass.Pkg.Info, call, "math/rand", globalrandBanned); ok {
				pass.Reportf(call.Pos(),
					"draw from an injected seeded stream: rng := rand.New(rand.NewSource(seed)); rng."+name+"(...)",
					"global math/rand draw rand.%s breaks seed-reproducibility", name)
			}
			return true
		})
	}
}
