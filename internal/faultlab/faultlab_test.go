package faultlab

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/servicemgr"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func testConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Horizon = 4 * time.Hour
	return cfg
}

// Unit property beyond TestDeterminism: a schedule is time-sorted, inside the horizon and a function of the seed alone.
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
	if vs := checkLeaseTerm(nil, "s", good); len(vs) != 0 {
		t.Fatalf("clean record flagged: %v", vs)
	}
	// A lease running past its ticket's leaf term — the forged state the
	// checker exists to catch.
	bad := good
	bad.Lease = &sharp.Lease{ID: "s/lease2", NotBefore: time.Hour, NotAfter: 5 * time.Hour}
	vs := checkLeaseTerm(nil, "s", bad)
	if len(vs) != 2 { // outside leaf term AND past root expiry
		t.Fatalf("violations = %v, want 2", vs)
	}
	if vs[0].Invariant != "lease-term" {
		t.Errorf("invariant = %q", vs[0].Invariant)
	}
}

// jobGatekeeper returns a gatekeeper on host "g" that has accepted and
// finished n short jobs, g/1 … g/n, all done within the first minute.
func jobGatekeeper(t *testing.T, n int) *gram.Gatekeeper {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 30, 0)
	net.AddHost("client", "A", 1e6)
	net.AddHost("g", "B", 1e6)
	rng := eng.ForkRand()
	ca := identity.NewCA("ca", 1000*time.Hour, rng)
	alice := identity.NewPrincipal("alice", rng)
	cred := identity.UserCredential(alice, ca.IssueUser(alice, 0, 500*time.Hour))
	gm := gsi.NewGridmap()
	gm.Map("alice", "u1001")
	gk := gram.NewGatekeeper(net, net.Host("g"), &gsi.SitePolicy{
		Auth:    &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(ca)},
		Gridmap: gm,
	})
	gk.AddManager("batch", gram.NewBatchManager(eng, "batch", n))
	for i := 0; i < n; i++ {
		gram.Submit(net, "client", "g", gram.SubmitRequest{
			Cred: cred,
			Spec: gram.JobSpec{RSL: "&(executable=probe)(count=1)(maxWallTime=60)", ActualRun: time.Second},
		}, time.Minute, func(_ gram.SubmitReply, err error) {
			if err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	eng.Run()
	return gk
}

func TestDoneDuringOutageCheckerTeeth(t *testing.T) {
	gk := jobGatekeeper(t, 10)
	doneAt := func(id string, at time.Duration) {
		gk.Job(id).History = []gram.Transition{{To: gram.Done, At: at}}
	}
	outages := []core.DownInterval{{From: time.Hour, To: 2 * time.Hour}}
	doneAt("g/1", 30*time.Minute)
	if vs := CheckNoDoneDuringOutage("s", gk, outages); len(vs) != 0 {
		t.Fatalf("clean job flagged: %v", vs)
	}
	// A job claiming completion while its site was dead.
	doneAt("g/2", 90*time.Minute)
	vs := CheckNoDoneDuringOutage("s", gk, outages)
	if len(vs) != 1 || vs[0].Invariant != "done-on-dead-node" {
		t.Fatalf("violations = %v", vs)
	}
	// Done inside a still-open outage is also a violation.
	open := []core.DownInterval{{From: time.Hour, Open: true}}
	if vs := CheckNoDoneDuringOutage("s", gk, open); len(vs) != 1 {
		t.Fatalf("open-interval violations = %v", vs)
	}
	// Two jobs done inside the outage report in job-ID order, which is
	// string order: g/10 before g/9.
	doneAt("g/2", 30*time.Minute)
	doneAt("g/9", 90*time.Minute)
	doneAt("g/10", 100*time.Minute)
	want := []string{
		"done-on-dead-node: s: job g/10 done at 1h40m0s inside outage [1h0m0s,2h0m0s)",
		"done-on-dead-node: s: job g/9 done at 1h30m0s inside outage [1h0m0s,2h0m0s)",
	}
	vs = CheckNoDoneDuringOutage("s", gk, outages)
	if len(vs) != len(want) {
		t.Fatalf("violations = %v, want %q", vs, want)
	}
	for i, v := range vs {
		if v.String() != want[i] {
			t.Errorf("violation %d = %q, want %q", i, v, want[i])
		}
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
		if strings.Contains(line.String(), " apply ") {
			applies++
		}
		if strings.Contains(line.String(), " revoke ") {
			revokes++
		}
	}
	if applies != revokes {
		t.Errorf("applies %d != revokes %d — a fault leaked past heal", applies, revokes)
	}
}

// Validate holds the two fields gridlab chaos sets from flags to "0 or at
// least the minimum", one case per rule, and RunChaos refuses what it
// refuses before building anything.
func TestChaosConfigValidate(t *testing.T) {
	for _, cfg := range []ChaosConfig{DefaultChaosConfig(), DefaultByzantineChaosConfig(),
		{Lease: minLease, ReconcileEvery: time.Second}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("lease %v reconcile %v: %v", cfg.Lease, cfg.ReconcileEvery, err)
		}
	}
	for _, cfg := range []ChaosConfig{
		{Lease: -time.Hour},
		{Lease: time.Nanosecond},
		{Lease: minLease - 1},
		{ReconcileEvery: -time.Minute},
		{ReconcileEvery: time.Nanosecond},
	} {
		if cfg.Validate() == nil {
			t.Errorf("lease %v reconcile %v: Validate accepted it", cfg.Lease, cfg.ReconcileEvery)
		}
	}

	cfg := testConfig()
	cfg.Lease = time.Nanosecond
	want := cfg.Validate()
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) != want.Error() {
			t.Errorf("RunChaos panicked with %v, want %q", r, want)
		}
	}()
	RunChaos(1, Quiet(), cfg)
}
