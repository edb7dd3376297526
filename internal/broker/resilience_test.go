package broker

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gram"
	"repro/internal/resilience"
)

func TestDeploySlicePartialSuccess(t *testing.T) {
	_, d, sm := plFixture(t)
	// Stock covers A fully but only 0.5 CPU at B: the degraded result
	// keeps A's PoP instead of tearing the whole slice down.
	if err := d.Stock(4, 0, time.Hour, "A"); err != nil {
		t.Fatal(err)
	}
	if err := d.Stock(0.5, 0, time.Hour, "B"); err != nil {
		t.Fatal(err)
	}
	res, err := d.DeploySlice("svc", sm, 1, 0, time.Hour, []string{"A", "B"})
	if err != nil {
		t.Fatalf("partial deploy errored: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("result not marked degraded")
	}
	if len(res.Deployed) != 1 || res.Deployed[0] != "A" {
		t.Errorf("Deployed = %v", res.Deployed)
	}
	if len(res.Failed) != 1 || res.Failed[0].Site != "B" || !errors.Is(res.Failed[0].Err, ErrNoTickets) {
		t.Errorf("Failed = %+v", res.Failed)
	}
	if res.Slice.Running() != 1 {
		t.Errorf("Running = %d", res.Slice.Running())
	}
	if len(res.Leases["A"]) == 0 {
		t.Error("no leases recorded for the deployed site")
	}
	if !errors.Is(res.Err(), ErrNoTickets) {
		t.Errorf("res.Err() = %v", res.Err())
	}
	// Degraded deployments count as failures in the E-counters.
	if d.DeployedN != 0 || d.FailedN != 1 {
		t.Errorf("DeployedN=%d FailedN=%d", d.DeployedN, d.FailedN)
	}
}

func TestDeployerBreakerTripsAndRecloses(t *testing.T) {
	eng, d, sm := plFixture(t)
	if err := d.Stock(4, 0, 10*time.Hour, "A", "B"); err != nil {
		t.Fatal(err)
	}
	down := map[string]bool{"B": true}
	d.SiteDown = func(s string) bool { return down[s] }
	d.Breakers = resilience.NewKit(eng, eng.ForkRand(), nil).Breakers

	for i := 0; i < resilience.BreakerThreshold; i++ {
		_, err := d.DeploySlice(fmt.Sprintf("s%d", i), sm, 1, 0, time.Hour, []string{"B"})
		if !errors.Is(err, ErrSiteUnreachable) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if st := d.Breakers.For("B").State(); st != resilience.StateOpen {
		t.Fatalf("breaker state after threshold = %s", st)
	}
	// Open breaker fails fast without consulting the site.
	if _, err := d.DeploySlice("s2", sm, 1, 0, time.Hour, []string{"B"}); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("open-breaker deploy: %v", err)
	}
	// After the cool-down the site has recovered: the half-open probe is
	// the deploy itself, and its success re-closes the breaker.
	down["B"] = false
	eng.RunUntil(resilience.BreakerCooldown)
	now := eng.Now()
	res, err := d.DeploySlice("s3", sm, 1, now, now+time.Hour, []string{"B"})
	if err != nil || res.Degraded() {
		t.Fatalf("post-recovery deploy: %+v, %v", res, err)
	}
	br := d.Breakers.For("B")
	if br.State() != resilience.StateClosed || br.ReclosesN != 1 || br.TripsN != 1 {
		t.Errorf("breaker = state %s trips %d recloses %d", br.State(), br.TripsN, br.ReclosesN)
	}
}

func TestRenewLeaseExtendsAndRestocks(t *testing.T) {
	eng, d, sm := plFixture(t)
	// Exactly enough stock for the deploy: the renewal must re-acquire a
	// fresh root ticket from the authority before it can sell to the SM.
	if err := d.Stock(1, 0, 10*time.Hour, "A"); err != nil {
		t.Fatal(err)
	}
	res, err := d.DeploySlice("svc", sm, 1, 0, time.Hour, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	lease := res.Leases["A"][0]
	eng.RunUntil(45 * time.Minute)
	if d.Inventory("A") != 0 {
		t.Fatalf("Inventory = %v, want 0 before renewal", d.Inventory("A"))
	}
	if err := d.RenewLease(sm, lease, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if lease.NotAfter != 2*time.Hour {
		t.Errorf("lease NotAfter = %v", lease.NotAfter)
	}
	if d.RenewedN != 1 || d.RenewFailN != 0 {
		t.Errorf("RenewedN=%d RenewFailN=%d", d.RenewedN, d.RenewFailN)
	}
	// The backing capability moved with the lease.
	c, err := d.Sites["A"].NM.Verify(lease.CapID)
	if err != nil || c.NotAfter != 2*time.Hour {
		t.Errorf("capability = %+v, %v", c, err)
	}
	// An unreachable site fails the renewal and counts it.
	d.SiteDown = func(string) bool { return true }
	if err := d.RenewLease(sm, lease, 3*time.Hour); !errors.Is(err, ErrSiteUnreachable) {
		t.Errorf("unreachable renew: %v", err)
	}
	if d.RenewFailN != 1 {
		t.Errorf("RenewFailN = %d", d.RenewFailN)
	}
}

func TestStockBestEffortAcrossSites(t *testing.T) {
	_, d, _ := plFixture(t)
	err := d.Stock(2, 0, time.Hour, "A", "Z", "B")
	if err == nil {
		t.Fatal("unknown site error swallowed")
	}
	// The good sites stocked despite Z failing.
	if d.Inventory("A") != 2 || d.Inventory("B") != 2 {
		t.Errorf("inventory A=%v B=%v", d.Inventory("A"), d.Inventory("B"))
	}
}

func TestMatchmakerSkipsOpenBreaker(t *testing.T) {
	f := newGlobusFixture(t)
	f.mm.Resilience = resilience.NewKit(f.eng, f.eng.ForkRand(), nil)
	br := f.mm.Resilience.Breakers.For("gk1")
	for i := 0; i < resilience.BreakerThreshold; i++ {
		br.Failure()
	}
	if br.State() != resilience.StateOpen {
		t.Fatal("fixture breaker not open")
	}
	var got Placement
	var err error
	f.mm.SubmitJob(f.proxy, gram.JobSpec{
		RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second,
	}, nil, func(p Placement, e error) { got, err = p, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Gatekeeper == "gk1" {
		t.Error("placed at the written-off gatekeeper")
	}
}

func TestMatchmakerRetryRidesOutOutage(t *testing.T) {
	f := newGlobusFixture(t)
	f.mm.Timeout = 15 * time.Second
	f.mm.Resilience = resilience.NewKit(f.eng, f.eng.ForkRand(), nil)
	// gk1 is dark for two base backoffs; without retry the legacy path
	// would fall through to gk2 on the first transport fault. The outage
	// costs two attempts, fewer than trip gk1's breaker.
	f.net.SetDown("gk1", true)
	f.eng.Schedule(2*resilience.BackoffBase, func() { f.net.SetDown("gk1", false) })
	var got Placement
	var err error
	f.mm.SubmitJob(f.proxy, gram.JobSpec{
		RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second,
	}, nil, func(p Placement, e error) { got, err = p, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Gatekeeper != "gk1" {
		t.Errorf("placed at %q, want gk1 (retry should outlast the outage)", got.Gatekeeper)
	}
	if br := f.mm.Resilience.Breakers.For("gk1"); br.State() != resilience.StateClosed || br.TripsN != 0 {
		t.Errorf("gk1 breaker = %s after %d trips, want closed and never tripped", br.State(), br.TripsN)
	}
}

func TestCoAllocatorCancelRetriesAndCountsLoss(t *testing.T) {
	f := newGlobusFixture(t)
	co := &CoAllocator{Net: f.net, Host: "bk", Timeout: 15 * time.Second}
	co.Retry = resilience.NewKit(f.eng, f.eng.ForkRand(), nil).Retry
	submit := func() Placement {
		var p Placement
		gram.Submit(f.net, "bk", "gk1", gram.SubmitRequest{
			Cred: f.proxy,
			Spec: gram.JobSpec{RSL: `&(executable=x)(maxWallTime=7000)`, ActualRun: time.Hour},
		}, time.Minute, func(r gram.SubmitReply, err error) {
			if err != nil {
				t.Fatal(err)
			}
			p = Placement{JobID: r.JobID, Gatekeeper: "gk1"}
		})
		f.eng.RunUntil(f.eng.Now() + 10*time.Second)
		return p
	}

	// A cancel issued into a transient outage lands once the site is back:
	// the job is reaped instead of charging the user for an hour.
	p1 := submit()
	f.net.SetDown("gk1", true)
	f.eng.Schedule(45*time.Second, func() { f.net.SetDown("gk1", false) })
	co.cancelPart(p1)
	f.eng.RunUntil(f.eng.Now() + 10*time.Minute)
	if j := f.gks["gk1"].Job(p1.JobID); j.State() != gram.Cancelled {
		t.Errorf("job after retried cancel = %v, want Cancelled", j.State())
	}
	if co.CancelLostN != 0 {
		t.Errorf("CancelLostN = %d after a cancel that landed", co.CancelLostN)
	}

	// A cancel whose site never comes back is counted as lost, not
	// silently discarded.
	p2 := submit()
	f.net.SetDown("gk1", true)
	co.cancelPart(p2)
	f.eng.RunUntil(f.eng.Now() + 30*time.Minute)
	if co.CancelLostN != 1 {
		t.Errorf("CancelLostN = %d, want 1", co.CancelLostN)
	}
}

func TestDeployerBreakerGateChargesOnlyConnectivity(t *testing.T) {
	// In-process refusals (no tickets) must NOT charge the breaker: the
	// site answered, so connectivity is fine.
	eng, d, sm := plFixture(t)
	d.Breakers = resilience.NewKit(eng, eng.ForkRand(), nil).Breakers
	for i := 0; i < 2*resilience.BreakerThreshold; i++ {
		_, err := d.DeploySlice(fmt.Sprintf("s%d", i), sm, 1, 0, time.Hour, []string{"A"})
		if !errors.Is(err, ErrNoTickets) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if st := d.Breakers.For("A").State(); st != resilience.StateClosed {
		t.Errorf("breaker state = %s after in-process refusals", st)
	}
}
