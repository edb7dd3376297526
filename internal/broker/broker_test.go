package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// globusFixture builds a 3-site Globus federation: an index + broker host
// at site O, gatekeepers gk1..gk3 at sites S1..S3 with batch managers.
type globusFixture struct {
	eng   *sim.Engine
	net   *simnet.Network
	mm    *Matchmaker
	gks   map[string]*gram.Gatekeeper
	maps  map[string]*gsi.Gridmap
	alice *identity.Credential
	proxy *identity.Credential
}

func newGlobusFixture(t *testing.T) *globusFixture {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("O", 0, 0)
	net.AddHost("idx", "O", 1e6)
	net.AddHost("bk", "O", 1e6)

	rng := eng.ForkRand()
	ca := identity.NewCA("ca", 1e6*time.Hour, rng)
	aliceP := identity.NewPrincipal("alice", rng)
	alice := identity.UserCredential(aliceP, ca.IssueUser(aliceP, 0, 1e5*time.Hour))
	proxy, err := alice.Delegate("alice/proxy", 0, 12*time.Hour, nil, rng)
	if err != nil {
		t.Fatal(err)
	}

	idx := mds.NewGIIS(eng, net, "idx")
	_ = idx
	var pushers []*mds.GRIS
	gks := make(map[string]*gram.Gatekeeper)
	maps := make(map[string]*gsi.Gridmap)
	for i := 1; i <= 3; i++ {
		site := fmt.Sprintf("S%d", i)
		gkHost := fmt.Sprintf("gk%d", i)
		net.AddSite(site, float64(20*i), 10)
		net.AddHost(gkHost, site, 1e6)
		gm := gsi.NewGridmap()
		gm.Map("alice", "u1001")
		maps[site] = gm
		policy := &gsi.SitePolicy{
			Auth:    &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(ca)},
			Gridmap: gm,
		}
		gk := gram.NewGatekeeper(net, net.Host(gkHost), policy)
		gk.AddManager("batch", gram.NewBatchManager(eng, "batch", 4))
		gks[gkHost] = gk
		// Register the resource in the index.
		gris := mds.NewGRIS(eng, net, gkHost)
		caps := fmt.Sprint(4)
		gris.AddProviderInto(gkHost+"/cluster", func(attrs map[string]string) {
			attrs["gatekeeper"], attrs["os"], attrs["cpus"] = gkHost, "linux", caps
		})
		gris.StartPush("idx", time.Minute)
		pushers = append(pushers, gris)
	}
	mm := &Matchmaker{Net: net, Host: "bk", Index: "idx", Timeout: time.Minute}
	eng.RunUntil(time.Second) // let registrations land
	// Stop the soft-state pushers so eng.Run() drains in tests; the
	// cached records stay valid for their 2-minute TTL, which covers
	// every query these tests make.
	for _, g := range pushers {
		g.Stop()
	}
	return &globusFixture{eng: eng, net: net, mm: mm, gks: gks, maps: maps, alice: alice, proxy: proxy}
}

func TestMatchmakerPlacesJob(t *testing.T) {
	f := newGlobusFixture(t)
	var got Placement
	var err error
	f.mm.SubmitJob(f.proxy, gram.JobSpec{
		RSL: `&(executable=/bin/sim)(count=2)(maxWallTime=100)`, ActualRun: time.Minute,
	}, []mds.Filter{{Attr: "os", Op: mds.FEq, Value: "linux"}}, func(p Placement, e error) { got, err = p, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID == "" || got.Gatekeeper == "" {
		t.Fatalf("placement = %+v", got)
	}
	// The job ran under alice's identity at the site.
	j := f.gks[got.Gatekeeper].Job(got.JobID)
	if j.Spec.Owner != "alice" {
		t.Errorf("owner = %q", j.Spec.Owner)
	}
	if j.State() != gram.Done {
		t.Errorf("state = %v", j.State())
	}
	if f.mm.PlacedN != 1 {
		t.Errorf("PlacedN = %d", f.mm.PlacedN)
	}
}

func TestMatchmakerRetriesOnSiteRefusal(t *testing.T) {
	f := newGlobusFixture(t)
	// Two of the three sites blacklist alice (policy churn): the broker
	// must fall through to the remaining one.
	f.maps["S1"].Blacklist("alice")
	f.maps["S2"].Blacklist("alice")
	var got Placement
	var err error
	f.mm.SubmitJob(f.proxy, gram.JobSpec{
		RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second,
	}, nil, func(p Placement, e error) { got, err = p, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Gatekeeper != "gk3" {
		t.Errorf("placed at %q, want gk3", got.Gatekeeper)
	}
	if f.mm.Hops < 3 { // index + at least 2 submits
		t.Errorf("Hops = %d", f.mm.Hops)
	}
}

func TestMatchmakerAllRefused(t *testing.T) {
	f := newGlobusFixture(t)
	for _, gm := range f.maps {
		gm.Blacklist("alice")
	}
	var err error
	f.mm.SubmitJob(f.proxy, gram.JobSpec{
		RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second,
	}, nil, func(_ Placement, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, ErrAllRefused) {
		t.Errorf("err = %v", err)
	}
	if f.mm.FailedN != 1 {
		t.Errorf("FailedN = %d", f.mm.FailedN)
	}
}

func TestMatchmakerNoCandidates(t *testing.T) {
	f := newGlobusFixture(t)
	var err error
	f.mm.SubmitJob(f.proxy, gram.JobSpec{
		RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second,
	}, []mds.Filter{{Attr: "os", Op: mds.FEq, Value: "plan9"}}, func(_ Placement, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v", err)
	}
}

func TestMatchmakerBlastRadiusGrows(t *testing.T) {
	f := newGlobusFixture(t)
	for i := 0; i < 5; i++ {
		f.mm.SubmitJob(f.proxy, gram.JobSpec{
			RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second,
		}, nil, func(Placement, error) {})
	}
	f.eng.Run()
	if br := MatchmakerBlastRadius(f.mm); br.IdentitiesExposed != 5 {
		t.Errorf("IdentitiesExposed = %d", br.IdentitiesExposed)
	}
}

func TestCoAllocatorAllOrNothing(t *testing.T) {
	f := newGlobusFixture(t)
	co := &CoAllocator{Net: f.net, Host: "bk", Timeout: time.Minute}
	// Success case: both parts fit.
	var ps []Placement
	var err error
	co.CoAllocate(f.proxy, []Part{
		{Gatekeeper: "gk1", Spec: gram.JobSpec{RSL: `&(executable=a)(count=2)(maxWallTime=100)`, ActualRun: time.Minute}},
		{Gatekeeper: "gk2", Spec: gram.JobSpec{RSL: `&(executable=b)(count=2)(maxWallTime=100)`, ActualRun: time.Minute}},
	}, func(p []Placement, e error) { ps, err = p, e })
	f.eng.RunUntil(time.Hour)
	if err != nil || len(ps) != 2 {
		t.Fatalf("co-alloc = (%v, %v)", ps, err)
	}
	if co.CoAllocN != 1 {
		t.Errorf("CoAllocN = %d", co.CoAllocN)
	}
	// Failure case: one part is refused (blacklist) → the other must be
	// cancelled.
	f.maps["S2"].Blacklist("alice")
	var err2 error
	var ps2 []Placement
	co.CoAllocate(f.proxy, []Part{
		{Gatekeeper: "gk1", Spec: gram.JobSpec{RSL: `&(executable=a)(count=2)(maxWallTime=7000)`, ActualRun: time.Hour}},
		{Gatekeeper: "gk2", Spec: gram.JobSpec{RSL: `&(executable=b)(count=2)(maxWallTime=7000)`, ActualRun: time.Hour}},
	}, func(p []Placement, e error) { ps2, err2 = p, e })
	f.eng.Run()
	if !errors.Is(err2, ErrPartialFail) || ps2 != nil {
		t.Fatalf("partial = (%v, %v)", ps2, err2)
	}
	if co.AbortN != 1 {
		t.Errorf("AbortN = %d", co.AbortN)
	}
	// The accepted gk1 part must have been cancelled.
	cancelled := false
	for id := 1; id <= 3; id++ {
		if j := f.gks["gk1"].Job(fmt.Sprintf("gk1/%d", id)); j != nil && j.State() == gram.Cancelled {
			cancelled = true
		}
	}
	if !cancelled {
		t.Error("gk1 part not cancelled after partial failure")
	}
}

// plFixture builds 3 PlanetLab sites with authorities and a deployer.
func plFixture(t *testing.T) (*sim.Engine, *Deployer, *identity.Principal) {
	t.Helper()
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(3))
	sites := make(map[string]*SiteRuntime)
	for _, s := range []string{"A", "B", "C"} {
		nm := capability.NewNodeManager(s, eng, rng, map[capability.ResourceType]float64{capability.CPU: 4})
		node := silk.NewNode(eng, s, silk.NodeSpec{Cores: 4, MemBytes: 1 << 30, DiskBytes: 1 << 34, NetBps: 1e7, MaxFDs: 1024})
		auth := sharp.NewAuthority(eng, s, identity.NewPrincipal("auth@"+s, rng), nm, map[capability.ResourceType]float64{capability.CPU: 4})
		sites[s] = &SiteRuntime{Authority: auth, NM: nm, Node: node}
	}
	d := &Deployer{Agent: sharp.NewAgent(identity.NewPrincipal("agent", rng)), Sites: sites}
	sm := identity.NewPrincipal("sm", rng)
	return eng, d, sm
}

func TestDeployerSliceAcrossSites(t *testing.T) {
	eng, d, sm := plFixture(t)
	if err := d.Stock(4, 0, time.Hour, "A", "B", "C"); err != nil {
		t.Fatal(err)
	}
	slice, err := d.DeploySliceAtomic("cdn", sm, 1, 0, time.Hour, []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if slice.Running() != 3 {
		t.Errorf("Running = %d", slice.Running())
	}
	// VMs really execute work under their leases.
	var done time.Duration
	v := slice.VM("A")
	if _, err := v.Exec("task", 2, func() { done = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// 1 dedicated core → 2 core-seconds in 2s.
	if done != 2*time.Second {
		t.Errorf("task at %v, want 2s", done)
	}
	if d.DeployedN != 1 {
		t.Errorf("DeployedN = %d", d.DeployedN)
	}
}

func TestDeployerInsufficientStock(t *testing.T) {
	_, d, sm := plFixture(t)
	if err := d.Stock(1, 0, time.Hour, "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeploySlice("big", sm, 2, 0, time.Hour, []string{"A"}); !errors.Is(err, ErrNoTickets) {
		t.Errorf("err = %v", err)
	}
	if d.FailedN != 1 {
		t.Errorf("FailedN = %d", d.FailedN)
	}
}

func TestDeployerRollbackOnPartialFailure(t *testing.T) {
	_, d, sm := plFixture(t)
	// Stock covers A fully but only 0.5 CPU at B.
	if err := d.Stock(4, 0, time.Hour, "A"); err != nil {
		t.Fatal(err)
	}
	if err := d.Stock(0.5, 0, time.Hour, "B"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeploySliceAtomic("svc", sm, 1, 0, time.Hour, []string{"A", "B"}); err == nil {
		t.Fatal("partial deploy succeeded")
	}
	// Tickets are soft claims (no NM commitment); the one lease that was
	// minted at A must have been released by the rollback, restoring the
	// full dedicated capacity.
	if got := d.Sites["A"].NM.Available(capability.CPU); got != 4 {
		t.Errorf("site A Available = %v, want 4 after rollback", got)
	}
	if d.Sites["A"].Node.Contexts() != 0 {
		t.Errorf("site A has %d leftover contexts", d.Sites["A"].Node.Contexts())
	}
}

func TestDeployerBlastRadiusIsResourcesNotIdentities(t *testing.T) {
	_, d, _ := plFixture(t)
	d.Stock(2, 0, time.Hour, "A", "B")
	br := DeployerBlastRadius(d)
	if br.IdentitiesExposed != 0 {
		t.Errorf("IdentitiesExposed = %d", br.IdentitiesExposed)
	}
	if br.ResourceExposed != 4 || br.SitesExposed != 2 {
		t.Errorf("blast = %+v", br)
	}
}

func TestDeployerUnknownSite(t *testing.T) {
	_, d, sm := plFixture(t)
	if err := d.Stock(1, 0, time.Hour, "Z"); err == nil {
		t.Error("stock from unknown site")
	}
	if _, err := d.DeploySlice("s", sm, 1, 0, time.Hour, []string{"Z"}); err == nil {
		t.Error("deploy to unknown site")
	}
}

func TestMatchmakerSurvivesLossyControlPlane(t *testing.T) {
	// The broker's retry ladder also covers message loss: with 20% loss
	// on every path, a single SubmitJob either places or reports a
	// definite error — never hangs — and usually places within the
	// candidate list (each candidate gets one timeout-bounded attempt).
	f := newGlobusFixture(t)
	f.net.BaseLoss = 0.2
	placedOrFailed := 0
	attempts := 5
	for i := 0; i < attempts; i++ {
		proxy, err := f.alice.Delegate("alice/p", f.eng.Now(), 12*time.Hour, nil, f.eng.ForkRand())
		if err != nil {
			t.Fatal(err)
		}
		f.mm.SubmitJob(proxy, gram.JobSpec{
			RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second,
		}, nil, func(p Placement, e error) { placedOrFailed++ })
		f.eng.RunUntil(f.eng.Now() + 10*time.Minute)
	}
	if placedOrFailed != attempts {
		t.Errorf("%d/%d submissions resolved under loss", placedOrFailed, attempts)
	}
	if f.mm.PlacedN == 0 {
		t.Error("nothing placed despite retries")
	}
}
