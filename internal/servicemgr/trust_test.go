package servicemgr

import (
	"testing"

	"repro/internal/broker"
	"repro/internal/trust"
)

// TestManagerReportsSellerOutcomes: with a trust scoreboard installed,
// every market outcome from a deploy feeds the seller's score — the
// manager is the buyer-side half of the reputation loop.
func TestManagerReportsSellerOutcomes(t *testing.T) {
	f := newFixture(t)
	scores := trust.NewScoreboard(trust.DefaultScoreDecay)
	ex := broker.NewExchange(f.eng.ForkRand(), scores)
	ex.AddSeller(f.dep.Agent)
	f.dep.Exchange = ex
	for _, rt := range f.dep.Sites {
		rt.Bank = trust.NewBank(rt.Node.Name)
		if err := rt.Bank.Deposit(f.dep.Agent.SellerName(), 5); err != nil {
			t.Fatal(err)
		}
	}
	m := New(f.eng, f.dep, f.sm, cfg())
	m.SetTrust(scores)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	name := f.dep.Agent.SellerName()
	reports := func() int {
		for _, row := range scores.Snapshot() {
			if row.Broker == name {
				return row.Reports
			}
		}
		return 0
	}
	if got := reports(); got != 3 {
		t.Fatalf("Reports(%q) = %d; want 3 (one per deployed site)", name, got)
	}
	if got := scores.Score(name); got <= 0.5 {
		t.Fatalf("Score(%q) = %v; want > 0.5 after successful deploys", name, got)
	}
	if m.TrustReportErrs != 0 {
		t.Fatalf("TrustReportErrs = %d", m.TrustReportErrs)
	}
	// A redeploy after failure keeps reporting.
	if _, err := m.SiteFailed("s1"); err != nil {
		t.Fatal(err)
	}
	if got := reports(); got != 4 {
		t.Fatalf("Reports(%q) after redeploy = %d; want 4", name, got)
	}
}

// TestManagerWithoutTrustIsInert: no scoreboard, no reports, no errors —
// the legacy path is untouched.
func TestManagerWithoutTrustIsInert(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if m.TrustReportErrs != 0 {
		t.Fatalf("TrustReportErrs = %d", m.TrustReportErrs)
	}
}
