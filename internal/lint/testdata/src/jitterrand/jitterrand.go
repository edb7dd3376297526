// Package jitterrand is gridlint corpus: resilience machinery built as
// a composite literal (no injected rand source, no engine clock) is
// flagged; NewKit is the sanctioned path.
package jitterrand

import (
	"repro/internal/resilience"
	"repro/internal/sim"
)

func Bad() {
	ex := resilience.Executor{} // want "resilience.Executor built as a composite literal"
	_ = ex
	k := &resilience.Kit{} // want "resilience.Kit built as a composite literal"
	_ = k
	var r *resilience.Renewer = &resilience.Renewer{} // want "resilience.Renewer built as a composite literal"
	_ = r
}

func Good(eng *sim.Engine) *resilience.Kit {
	return resilience.NewKit(eng, eng.ForkRand(), nil)
}
