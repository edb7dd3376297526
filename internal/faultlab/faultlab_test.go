package faultlab

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/mds"
	"repro/internal/servicemgr"
	"repro/internal/sharp"
)

func testConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Horizon = 4 * time.Hour
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	sites := []string{"s00", "s01", "s02"}
	p, err := ProfileByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(7, p, sites, 8*time.Hour)
	b := Generate(7, p, sites, 8*time.Hour)
	if a.String() != b.String() {
		t.Errorf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	if len(a.Faults) == 0 {
		t.Fatal("mixed profile generated no faults")
	}
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].At < a.Faults[i-1].At {
			t.Errorf("schedule not time-sorted at %d", i)
		}
	}
	for _, f := range a.Faults {
		if f.At+f.Duration > 8*time.Hour {
			t.Errorf("fault %s extends past horizon", f)
		}
	}
	c := Generate(8, p, sites, 8*time.Hour)
	if a.String() == c.String() {
		t.Error("different seeds produced identical schedules")
	}
}

func TestGenerateQuietIsEmpty(t *testing.T) {
	s := Generate(3, Quiet(), []string{"s00"}, 8*time.Hour)
	if len(s.Faults) != 0 {
		t.Errorf("quiet profile generated %d faults", len(s.Faults))
	}
}

// Same (seed, profile) must reproduce the run bit-for-bit: identical fault
// trace, identical metrics, identical verdict. This is the property that
// makes a Sweep failure a complete minimal repro.
func TestChaosRunDeterministic(t *testing.T) {
	cfg := testConfig()
	p, _ := ProfileByName("mixed")
	a := RunChaos(11, p, cfg)
	b := RunChaos(11, p, cfg)
	if strings.Join(a.Trace, "\n") != strings.Join(b.Trace, "\n") {
		t.Errorf("traces diverged:\n%s\nvs\n%s",
			strings.Join(a.Trace, "\n"), strings.Join(b.Trace, "\n"))
	}
	if a.Summary != b.Summary {
		t.Errorf("summaries diverged:\n%s\nvs\n%s", a.Summary, b.Summary)
	}
	if a.OK() != b.OK() {
		t.Errorf("verdicts diverged: %v vs %v", a.OK(), b.OK())
	}
	if len(a.Trace) == 0 {
		t.Error("mixed run applied no faults")
	}
}

// Metamorphic property: installing an injector with an empty (quiet)
// schedule must be indistinguishable from never installing one — fault
// generation draws from its own RNG, so the scenario's event streams are
// untouched.
func TestQuietScheduleMatchesBaseline(t *testing.T) {
	cfg := testConfig()
	quiet := RunChaos(5, Quiet(), cfg)
	c := newChaosRun(5, cfg)
	c.arm(nil) // no injector installed at all
	base := c.finish()
	if quiet.Summary != base.Summary {
		t.Errorf("quiet run differs from baseline:\n%s\nvs\n%s", quiet.Summary, base.Summary)
	}
	if len(quiet.Trace) != 0 {
		t.Errorf("quiet run has a fault trace: %v", quiet.Trace)
	}
	if !quiet.OK() || !base.OK() {
		t.Errorf("violations in fault-free runs: %v / %v", quiet.Violations, base.Violations)
	}
}

func TestChaosReproString(t *testing.T) {
	r := &Report{Seed: 17, Profile: "partitions"}
	if got := r.Repro(); got != "gridlab chaos -seed 17 -profile partitions" {
		t.Errorf("Repro() = %q", got)
	}
}

// ---- Teeth tests: each invariant checker must catch a deliberately
// broken world, or a clean sweep means nothing. -----------------------

func TestLeaseTermCheckerTeeth(t *testing.T) {
	good := sharp.LeaseRecord{
		Lease:         &sharp.Lease{ID: "s/lease1", NotBefore: time.Hour, NotAfter: 2 * time.Hour},
		LeafNotBefore: time.Hour, LeafNotAfter: 2 * time.Hour, RootNotAfter: 3 * time.Hour,
	}
	if vs := CheckLeaseTerms("s", []sharp.LeaseRecord{good}); len(vs) != 0 {
		t.Fatalf("clean record flagged: %v", vs)
	}
	// A lease running past its ticket's leaf term — the forged state the
	// checker exists to catch.
	bad := good
	bad.Lease = &sharp.Lease{ID: "s/lease2", NotBefore: time.Hour, NotAfter: 5 * time.Hour}
	vs := CheckLeaseTerms("s", []sharp.LeaseRecord{bad})
	if len(vs) != 2 { // outside leaf term AND past root expiry
		t.Fatalf("violations = %v, want 2", vs)
	}
	if vs[0].Invariant != "lease-term" {
		t.Errorf("invariant = %q", vs[0].Invariant)
	}
}

func TestDoneDuringOutageCheckerTeeth(t *testing.T) {
	outages := []core.DownInterval{{From: time.Hour, To: 2 * time.Hour}}
	ok := &gram.Job{ID: "g/1", History: []gram.Transition{{To: gram.Done, At: 30 * time.Minute}}}
	if vs := CheckNoDoneDuringOutage("s", []*gram.Job{ok}, outages); len(vs) != 0 {
		t.Fatalf("clean job flagged: %v", vs)
	}
	// A job claiming completion while its site was dead.
	bad := &gram.Job{ID: "g/2", History: []gram.Transition{{To: gram.Done, At: 90 * time.Minute}}}
	vs := CheckNoDoneDuringOutage("s", []*gram.Job{bad}, outages)
	if len(vs) != 1 || vs[0].Invariant != "done-on-dead-node" {
		t.Fatalf("violations = %v", vs)
	}
	// Done inside a still-open outage is also a violation.
	open := []core.DownInterval{{From: time.Hour, Open: true}}
	if vs := CheckNoDoneDuringOutage("s", []*gram.Job{bad}, open); len(vs) != 1 {
		t.Fatalf("open-interval violations = %v", vs)
	}
}

// End-to-end MDS teeth: a rogue registration with an enormous TTL pins a
// record in the index; once its source node has been dead longer than the
// honest TTL bound, the freshness audit must flag it.
func TestMDSFreshnessCheckerTeeth(t *testing.T) {
	refresh := 2 * time.Minute
	f := core.Build(core.StackHybrid, core.Config{Seed: 1, RefreshInterval: refresh}, []core.SiteSpec{
		{Name: "s00", X: 10, Y: 0, Nodes: 1, ClusterSlots: 4, Policy: core.PlanetLabSitePolicy()},
		{Name: "s01", X: 20, Y: 5, Nodes: 1, ClusterSlots: 4, Policy: core.PlanetLabSitePolicy()},
	})
	ttlBound := 2*refresh + time.Second

	// The rogue push: a snapshot registered with a 100h TTL.
	rogue := mds.Registration{
		Rec: mds.Record{Name: "rogue/sensor", Attrs: map[string]string{"x": "1"}, Stamp: f.Eng.Now(), Source: "gk-s00"},
		TTL: 100 * time.Hour,
	}
	f.Net.Send("gk-s00", "vo-index", mds.SvcRegister, rogue)
	f.Eng.RunUntil(f.Eng.Now() + time.Second)

	f.CrashNode("s00")
	f.Eng.RunUntil(f.Eng.Now() + 3*refresh)

	vs := CheckMDSFreshness(f.Index, f.Eng.Now(), f.HostDownSince, ttlBound)
	found := false
	for _, v := range vs {
		if v.Invariant == "mds-freshness" && strings.Contains(v.Detail, "rogue/sensor") {
			found = true
		}
	}
	if !found {
		t.Fatalf("rogue record not flagged; violations = %v", vs)
	}
	// Honest records from the dead node must NOT be flagged: their 2×refresh
	// TTL expired before the bound elapsed, so the index no longer serves them.
	for _, v := range vs {
		if !strings.Contains(v.Detail, "rogue/sensor") {
			t.Errorf("unexpected violation %v", v)
		}
	}
}

func TestServiceStrengthChecker(t *testing.T) {
	// Strength is exercised end-to-end by the chaos runs; here just the
	// feasibility clamp: an empty manager with 0 feasible sites is clean.
	if vs := CheckServiceStrength(&servicemgr.Manager{}, 0); len(vs) != 0 {
		t.Errorf("infeasible target flagged: %v", vs)
	}
}

func TestInjectorWindowsIdempotentHeal(t *testing.T) {
	cfg := testConfig()
	p, _ := ProfileByName("crashes")
	sched := Generate(3, p, cfg.SiteNames(), cfg.Horizon)
	if len(sched.Faults) == 0 {
		t.Skip("seed drew no faults")
	}
	// HealAll twice must not double-revoke (Window.Revoke is idempotent).
	rep := RunChaos(3, p, cfg)
	if rep.Schedule == nil || len(rep.Trace) == 0 {
		t.Fatal("no trace")
	}
	applies, revokes := 0, 0
	for _, line := range rep.Trace {
		if strings.Contains(line, " apply ") {
			applies++
		}
		if strings.Contains(line, " revoke ") {
			revokes++
		}
	}
	if applies != revokes {
		t.Errorf("applies %d != revokes %d — a fault leaked past heal", applies, revokes)
	}
}
