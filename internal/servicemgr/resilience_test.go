package servicemgr

import (
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/resilience"
)

// shortCfg is a service whose 2-hour leases actually matter inside the
// test horizon.
func shortCfg() Config {
	return Config{
		Name:       "cdn",
		Target:     3,
		CPUPerSite: 1,
		Candidates: []string{"s0", "s1", "s2", "s3", "s4"},
		Lease:      2 * time.Hour,
	}
}

func TestLeaseLapseTearsDownPoP(t *testing.T) {
	// Without a resilience kit nothing renews: the watchdog must enforce
	// expiry instead of letting VMs run on resources they no longer hold.
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, shortCfg())
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if m.Running() != 3 {
		t.Fatalf("Running = %d", m.Running())
	}
	f.eng.RunUntil(3 * time.Hour)
	if m.Running() != 0 {
		t.Errorf("Running = %d after lease expiry", m.Running())
	}
	if m.LeaseLapsedN != 3 {
		t.Errorf("LeaseLapsedN = %d", m.LeaseLapsedN)
	}
	// Lapsed PoPs' resources went back to the nodes.
	if got := f.dep.Sites["s0"].NM.Available(capability.CPU); got != 4 {
		t.Errorf("s0 Available = %v after lapse, want 4", got)
	}
	m.Stop() // close the open degraded interval
	if m.DegradedTime == 0 {
		t.Error("no degraded time accrued after total lapse")
	}
}

func TestKeepaliveRenewalPreventsLapse(t *testing.T) {
	f := newFixture(t)
	// Renewals re-sell and eventually restock; give the authorities soft
	// headroom (issued claims are never un-issued).
	for _, s := range f.dep.Sites {
		s.Authority.SetOversellFactor(100)
	}
	kit := resilience.NewKit(f.eng, f.eng.ForkRand(), nil)
	m := New(f.eng, f.dep, f.sm, shortCfg())
	m.SetResilience(kit)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(12 * time.Hour)
	if m.Running() != 3 {
		t.Errorf("Running = %d at 12h with keepalive", m.Running())
	}
	if m.LeaseLapsedN != 0 {
		t.Errorf("LeaseLapsedN = %d", m.LeaseLapsedN)
	}
	// 2h leases renewed at 1.5h then every 2h: at least 5 cycles per site.
	if kit.Renewer.RenewedN < 15 {
		t.Errorf("RenewedN = %d, want >= 15", kit.Renewer.RenewedN)
	}
	for _, site := range m.order {
		exp, ok := m.LeaseHorizon(site)
		if !ok || exp <= f.eng.Now() {
			t.Errorf("site %s horizon %v not ahead of now %v", site, exp, f.eng.Now())
		}
	}
	// Teardown stops the keepalive loop.
	m.Stop()
	renewed := kit.Renewer.RenewedN
	f.eng.RunUntil(24 * time.Hour)
	if kit.Renewer.RenewedN != renewed {
		t.Errorf("RenewedN %d → %d after Stop; the keepalive kept renewing", renewed, kit.Renewer.RenewedN)
	}
}

func TestFailoverSkipsOpenBreaker(t *testing.T) {
	f := newFixture(t)
	kit := resilience.NewKit(f.eng, f.eng.ForkRand(), nil)
	m := New(f.eng, f.dep, f.sm, cfg())
	m.SetResilience(kit)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// The broker has written s3 off; failover must go to s4 instead.
	br := kit.Breakers.For("s3")
	for i := 0; i < 3; i++ {
		br.Failure()
	}
	rep, err := m.SiteFailed("s1")
	if err != nil {
		t.Fatal(err)
	}
	if rep != "s4" {
		t.Errorf("replacement = %q, want s4 (s3 breaker open)", rep)
	}
}

func TestBackgroundRetryRecoversDeploy(t *testing.T) {
	// s3 has no stock when s1 fails, so the immediate failover finds no
	// spare; the background retry picks the site up once stock arrives.
	f := newFixture(t)
	for _, s := range f.dep.Sites {
		s.Authority.SetOversellFactor(100) // the test re-stocks s3 later
	}
	kit := resilience.NewKit(f.eng, f.eng.ForkRand(), nil)
	c := cfg()
	c.Candidates = []string{"s0", "s1", "s2", "s3"}
	m := New(f.eng, f.dep, f.sm, c)
	m.SetResilience(kit)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// Drain s3's broker stock (a plain sale, no node capacity consumed)
	// so the failover attempt finds no spare.
	if _, err := f.dep.Agent.Sell(f.sm.Name, f.sm.Public(), "s3", capability.CPU,
		f.dep.Inventory("s3"), 0, 1000*time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SiteFailed("s1"); err == nil {
		t.Fatal("failover unexpectedly found a spare")
	}
	if m.Running() != 2 {
		t.Fatalf("Running = %d", m.Running())
	}
	// Stock returns; the next reconcile (the repair pass fault hooks run)
	// restores strength.
	f.eng.RunUntil(time.Hour)
	if err := f.dep.Stock(4, f.eng.Now(), f.eng.Now()+1000*time.Hour, "s3"); err != nil {
		t.Fatal(err)
	}
	if n := m.Reconcile(); n != 1 {
		t.Errorf("Reconcile deployed %d, want 1", n)
	}
	if m.Running() != 3 {
		t.Errorf("Running = %d after repair", m.Running())
	}
}
