package lint

import (
	"go/ast"
	"go/types"
)

// ErrdropAnalyzer flags discarded error returns from domain-critical
// calls. SHARP's correctness story is auditable claim/lease accounting:
// a Redeem or Submit whose error vanishes is an account that silently
// stopped balancing — double-spends, lost jobs, and leaked leases all
// start as an ignored error. The analyzer is name-targeted (not every
// error in the tree) so the signal stays sharp: these are the calls
// whose failure changes resource-accounting state.
var ErrdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "flag discarded errors from domain-critical calls (Redeem, Claim, Submit, Renew, Deploy, Slash, ReportOutcome, ...)",
	Run:  runErrdrop,
}

// errdropTargets are the guarded call names. A call is flagged when its
// name matches and an error result is discarded — as a bare statement,
// via the blank identifier, or behind go/defer.
var errdropTargets = map[string]bool{
	"Redeem":      true,
	"Claim":       true,
	"AcquirePort": true,
	"Submit":      true,
	"Deploy":      true,
	"DeploySlice": true,
	"Acquire":     true,
	"Stock":       true,
	// Resilience-era accounting calls: a renewal or cancel whose error
	// vanishes is a lease that lapses (or a job that leaks) silently, and
	// a retry loop's terminal error is the only record that it gave up.
	"Renew":      true,
	"RenewLease": true,
	"Cancel":     true,
	"Do":         true,
	// Byzantine-era trust accounting: a Deposit or Slash whose error
	// vanishes is collateral that silently stopped conserving, and a
	// dropped ReportOutcome is a fraud the scoreboard never learns about.
	"Deposit":       true,
	"Slash":         true,
	"ReportOutcome": true,
	// Scale-era hot paths: a RegisterRecord whose error vanishes is a
	// sensor the index silently never learned about; a dropped
	// QueryShards error hides ErrNoRegions behind an empty result; and a
	// discarded Verify result is an unverified delegation chain treated
	// as verified.
	"RegisterRecord": true,
	"QueryShards":    true,
	"Verify":         true,
}

func runErrdrop(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ExprStmt:
				if call, ok := v.X.(*ast.CallExpr); ok {
					reportDroppedCall(pass, call)
				}
			case *ast.GoStmt:
				reportDroppedCall(pass, v.Call)
			case *ast.DeferStmt:
				reportDroppedCall(pass, v.Call)
			case *ast.AssignStmt:
				// a, _ := x.Redeem(tk) — blank in the error position.
				if len(v.Rhs) == 1 {
					if call, ok := v.Rhs[0].(*ast.CallExpr); ok {
						name, idxs := errdropCall(info, call)
						for _, i := range idxs {
							if i < len(v.Lhs) && isBlank(v.Lhs[i]) {
								pass.Reportf(call.Pos(),
									"handle the error or justify with //gridlint:ignore errdrop <reason>",
									"error from %s discarded via blank identifier", name)
							}
						}
					}
				}
			}
			return true
		})
	}
}

func reportDroppedCall(pass *Pass, call *ast.CallExpr) {
	if name, idxs := errdropCall(pass.Pkg.Info, call); len(idxs) > 0 {
		pass.Reportf(call.Pos(),
			"handle the error or justify with //gridlint:ignore errdrop <reason>",
			"error returned by %s is dropped", name)
	}
}

// errdropCall reports whether call targets a guarded name and, if so,
// the result indexes holding an error.
func errdropCall(info *types.Info, call *ast.CallExpr) (string, []int) {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	case *ast.Ident:
		name = fn.Name
	default:
		return "", nil
	}
	if !errdropTargets[name] {
		return "", nil
	}
	tv, ok := info.Types[call]
	if !ok {
		return "", nil
	}
	var idxs []int
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				idxs = append(idxs, i)
			}
		}
	default:
		if isErrorType(t) {
			idxs = append(idxs, 0)
		}
	}
	return name, idxs
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
