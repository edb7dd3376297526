package servicemgr

import (
	"slices"
	"testing"
)

func TestReconcileRepairsAfterFailure(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill s1's VM behind the manager's back (a silent node crash).
	m.active["s1"].StopAll()
	if m.Running() != 2 {
		t.Fatalf("Running = %d after silent kill", m.Running())
	}
	n := m.Reconcile()
	if n != 1 {
		t.Errorf("Reconcile deployed %d", n)
	}
	if m.Running() != 3 {
		t.Errorf("Running = %d after reconcile", m.Running())
	}
	// s1 was never marked down (the crash was silent), so it is the first
	// spare candidate: the dead slice is pruned and a fresh one deployed.
	if s := m.active["s1"]; s == nil || s.Running() != 1 {
		t.Error("s1 not redeployed with a live slice")
	}
}

func TestReconcileSkipsDownSites(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// s0 fails; its replacement must not be s3-marked-down either.
	if _, err := m.SiteFailed("s0"); err != nil {
		t.Fatal(err)
	}
	m.active["s3"].StopAll() // kill the replacement silently
	m.downAt["s3"] = f.eng.Now()
	n := m.Reconcile()
	if n != 1 {
		t.Fatalf("Reconcile deployed %d", n)
	}
	for _, site := range m.ActiveSites() {
		if site == "s0" || site == "s3" {
			t.Errorf("reconcile deployed to down site %s", site)
		}
	}
	if m.Running() != 3 {
		t.Errorf("Running = %d", m.Running())
	}
}

func TestSiteFailedSkipsDownCandidates(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if err := m.Start(); err != nil {
		t.Fatal(err) // active: s0 s1 s2
	}
	// s3 is known-down; when s0 fails the spare must be s4, not s3.
	m.downAt["s3"] = f.eng.Now()
	repl, err := m.SiteFailed("s0")
	if err != nil {
		t.Fatal(err)
	}
	if repl != "s4" {
		t.Errorf("replacement = %s, want s4", repl)
	}
}

func TestReconcileBeforeStartIsNoop(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if n := m.Reconcile(); n != 0 {
		t.Errorf("Reconcile before Start deployed %d", n)
	}
}

func TestTargetAccessor(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if m.Target() != 3 {
		t.Errorf("Target = %d", m.Target())
	}
}

// TestReconcilePrunesEveryDeadSlice: Reconcile walks the live site list
// while it vacates from it, so two dead neighbours are both pruned, not
// the first and then the one after the second.
func TestReconcilePrunesEveryDeadSlice(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if err := m.Start(); err != nil {
		t.Fatal(err) // active: s0 s1 s2
	}
	for _, site := range []string{"s0", "s1"} {
		m.active[site].StopAll()
		m.downAt[site] = f.eng.Now()
	}
	if n := m.Reconcile(); n != 2 {
		t.Fatalf("Reconcile deployed %d, want 2", n)
	}
	if got := m.ActiveSites(); !slices.Equal(got, []string{"s2", "s3", "s4"}) {
		t.Errorf("ActiveSites = %v, want [s2 s3 s4]", got)
	}
	for _, site := range cfg().Candidates {
		if m.Hosts(site) != (site >= "s2") {
			t.Errorf("Hosts(%s) = %v", site, m.Hosts(site))
		}
	}
}
