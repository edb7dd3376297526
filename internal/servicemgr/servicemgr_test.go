package servicemgr

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
)

type fixture struct {
	eng *sim.Engine
	dep *broker.Deployer
	sm  *identity.Principal
}

// newFixture builds 5 candidate sites with 4 CPU each, fully stocked.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := sim.NewEngine(13)
	rng := rand.New(rand.NewSource(13))
	sites := make(map[string]*broker.SiteRuntime)
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	for _, s := range names {
		nm := capability.NewNodeManager(s, eng, rng, map[capability.ResourceType]float64{capability.CPU: 4})
		node := silk.NewNode(eng, s, silk.NodeSpec{Cores: 4, MemBytes: 1 << 30, DiskBytes: 1 << 34, NetBps: 1e7, MaxFDs: 512})
		auth := sharp.NewAuthority(eng, s, identity.NewPrincipal("auth@"+s, rng), nm,
			map[capability.ResourceType]float64{capability.CPU: 4})
		sites[s] = &broker.SiteRuntime{Authority: auth, NM: nm, Node: node}
	}
	dep := &broker.Deployer{Agent: sharp.NewAgent(identity.NewPrincipal("agent", rng)), Sites: sites}
	if err := dep.Stock(4, 0, 1000*time.Hour, names...); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, dep: dep, sm: identity.NewPrincipal("sm", rng)}
}

func cfg() Config {
	return Config{
		Name:       "cdn",
		Target:     3,
		CPUPerSite: 1,
		Candidates: []string{"s0", "s1", "s2", "s3", "s4"},
		Lease:      1000 * time.Hour,
	}
}

func TestStartReachesTarget(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if m.Running() != 3 {
		t.Errorf("Running = %d", m.Running())
	}
	sites := m.ActiveSites()
	if len(sites) != 3 || sites[0] != "s0" || sites[2] != "s2" {
		t.Errorf("ActiveSites = %v (preference order violated)", sites)
	}
	if err := m.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Errorf("double start: %v", err)
	}
}

func TestFailureTriggersRedeploy(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	m.Start()
	replacement, err := m.SiteFailed("s1")
	if err != nil {
		t.Fatal(err)
	}
	if replacement != "s3" {
		t.Errorf("replacement = %q, want s3 (next candidate)", replacement)
	}
	if m.Running() != 3 {
		t.Errorf("Running = %d after redeploy", m.Running())
	}
	if m.RedeployN != 1 {
		t.Errorf("RedeployN = %d", m.RedeployN)
	}
	// s1's resources were released at its node.
	if got := f.dep.Sites["s1"].NM.Available(capability.CPU); got != 4 {
		t.Errorf("failed site capacity = %v", got)
	}
}

func TestExhaustedSparesRunDegraded(t *testing.T) {
	f := newFixture(t)
	c := cfg()
	c.Target = 5 // all candidates active from the start
	m := New(f.eng, f.dep, f.sm, c)
	m.Start()
	if m.Running() != 5 {
		t.Fatalf("Running = %d", m.Running())
	}
	if _, err := m.SiteFailed("s2"); !errors.Is(err, ErrNoSpareSites) {
		t.Errorf("err = %v", err)
	}
	if m.Running() != 4 {
		t.Errorf("Running = %d, want degraded 4", m.Running())
	}
	// Degraded time accrues until a site comes back.
	f.eng.RunUntil(10 * time.Hour)
	m.SiteRecovered("s2")
	if rep, err := m.SiteFailed("s4"); err != nil || rep != "s2" {
		// s2 recovered and has stock again? Its stock was consumed by the
		// original deploy (tickets are one-shot), so redeploy needs stock.
		t.Logf("redeploy after recover: rep=%q err=%v (stock-dependent)", rep, err)
	}
}

func TestDegradedTimeAccounting(t *testing.T) {
	f := newFixture(t)
	c := cfg()
	c.Target = 5
	m := New(f.eng, f.dep, f.sm, c)
	m.Start()
	f.eng.RunUntil(time.Hour)
	m.SiteFailed("s0") // degraded, no spare
	f.eng.RunUntil(3 * time.Hour)
	m.Stop() // still below target; accounting closes on state change
	if m.DegradedTime < 2*time.Hour {
		t.Errorf("DegradedTime = %v, want >= 2h", m.DegradedTime)
	}
}

func TestStopTearsDownEverything(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	m.Start()
	m.Stop()
	if m.Running() != 0 {
		t.Errorf("Running = %d after Stop", m.Running())
	}
	for _, s := range []string{"s0", "s1", "s2"} {
		if got := f.dep.Sites[s].NM.Available(capability.CPU); got != 4 {
			t.Errorf("site %s capacity = %v after Stop", s, got)
		}
	}
}

func TestInsufficientStockDegradesStart(t *testing.T) {
	f := newFixture(t)
	c := cfg()
	c.CPUPerSite = 5 // more than any site's stock
	m := New(f.eng, f.dep, f.sm, c)
	if err := m.Start(); err == nil {
		t.Error("start succeeded with no deployable site")
	}
	if m.Running() != 0 {
		t.Errorf("Running = %d", m.Running())
	}
}

// activeSitesRef is the list the builder built before the reader: the
// active map's keys, sorted.
func activeSitesRef(m *Manager) []string {
	var out []string
	for s := range m.active {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// EachActiveSite visits the sites the old sorted copy held, also after an
// active site drops and a replacement deploys.
func TestEachActiveSiteMatchesCopy(t *testing.T) {
	f := newFixture(t)
	m := New(f.eng, f.dep, f.sm, cfg())
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	check := func(step string, n int) {
		t.Helper()
		var got []string
		m.EachActiveSite(func(s string) { got = append(got, s) })
		want := activeSitesRef(m)
		if len(want) != n || !slices.Equal(got, want) || !slices.Equal(m.ActiveSites(), want) {
			t.Errorf("%s: EachActiveSite = %v, ActiveSites = %v, want %v", step, got, m.ActiveSites(), want)
		}
	}
	check("started", 3)
	if _, err := m.SiteFailed("s1"); err != nil {
		t.Fatal(err)
	}
	check("s1 dropped", 3)
	m.Stop()
	check("stopped", 0)
}
