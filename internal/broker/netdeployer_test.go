package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vm"
)

type netDepFixture struct {
	eng *sim.Engine
	net *simnet.Network
	d   *NetDeployer
	sm  *identity.Principal
}

func newNetDepFixture(t *testing.T) *netDepFixture {
	t.Helper()
	eng := sim.NewEngine(6)
	net := simnet.New(eng)
	net.AddSite("center", 0, 0)
	net.AddHost("agenthost", "center", 1e7)
	net.AddHost("smhost", "center", 1e7)
	rng := rand.New(rand.NewSource(6))

	d := &NetDeployer{
		Net:           net,
		Host:          "agenthost",
		Agent:         sharp.NewAgent(identity.NewPrincipal("agent", rng)),
		AuthorityHost: make(map[string]string),
		SiteNodes:     make(map[string]*SiteRuntime),
		Timeout:       time.Minute,
	}
	for i, s := range []string{"A", "B", "C"} {
		net.AddSite(s, float64(20*(i+1)), 10)
		authHost := "auth-" + s
		net.AddHost(authHost, s, 1e7)
		nm := capability.NewNodeManager(s+"/n0", eng, rng, map[capability.ResourceType]float64{capability.CPU: 4})
		node := silk.NewNode(eng, s+"/n0", silk.NodeSpec{Cores: 4, MemBytes: 1 << 30, DiskBytes: 1 << 34, NetBps: 1e7, MaxFDs: 512})
		auth := sharp.NewAuthority(eng, s, identity.NewPrincipal("auth@"+s, rng), nm,
			map[capability.ResourceType]float64{capability.CPU: 4})
		sharp.NewAuthorityService(net, authHost, auth)
		d.AuthorityHost[s] = authHost
		d.SiteNodes[s] = &SiteRuntime{Authority: auth, NM: nm, Node: node}
	}
	sharp.NewAgentService(net, "agenthost", d.Agent)
	return &netDepFixture{eng: eng, net: net, d: d, sm: identity.NewPrincipal("sm", rng)}
}

func TestNetDeployerFullFlow(t *testing.T) {
	f := newNetDepFixture(t)
	var stockErr error
	f.d.StockOverNet(2, 0, time.Hour, []string{"A", "B", "C"}, func(err error) { stockErr = err })
	f.eng.Run()
	if stockErr != nil {
		t.Fatal(stockErr)
	}
	if got := f.d.Agent.Inventory("A", capability.CPU); got != 2 {
		t.Fatalf("stocked %v at A", got)
	}
	var gotErr error
	var running int
	start := f.eng.Now()
	var setup time.Duration
	f.d.DeploySliceOverNet("cdn", "smhost", f.sm, 1, 0, time.Hour, []string{"A", "B", "C"},
		func(s *vm.Slice, err error) {
			gotErr = err
			if s != nil {
				running = s.Running()
			}
			setup = f.eng.Now() - start
		})
	f.eng.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if running != 3 {
		t.Errorf("running = %d", running)
	}
	// Setup paid real WAN round-trips: 3 sites × (buy + redeem) legs.
	if setup < 100*time.Millisecond {
		t.Errorf("setup = %v, expected real RTTs", setup)
	}
	if f.d.SetupTime == 0 || f.d.DeployedN != 1 {
		t.Errorf("counters: setup=%v deployed=%d", f.d.SetupTime, f.d.DeployedN)
	}
}

func TestNetDeployerInsufficientStockFails(t *testing.T) {
	f := newNetDepFixture(t)
	f.d.StockOverNet(0.5, 0, time.Hour, []string{"A"}, func(error) {})
	f.eng.Run()
	var gotErr error
	f.d.DeploySliceOverNet("svc", "smhost", f.sm, 1, 0, time.Hour, []string{"A"},
		func(_ *vm.Slice, err error) { gotErr = err })
	f.eng.Run()
	if !errors.Is(gotErr, ErrDeployFailed) {
		t.Errorf("err = %v", gotErr)
	}
}

func TestNetDeployerPartitionFailsAndRollsBack(t *testing.T) {
	f := newNetDepFixture(t)
	f.d.StockOverNet(2, 0, time.Hour, []string{"A", "B"}, func(error) {})
	f.eng.Run()
	// Cut the SM off from site B's authority: redeem at B must time out,
	// and A's already-built VM must be torn down.
	f.net.Partition("center", "B", true)
	var gotErr error
	done := false
	f.d.DeploySliceOverNet("svc", "smhost", f.sm, 1, 0, time.Hour, []string{"A", "B"},
		func(_ *vm.Slice, err error) { gotErr, done = err, true })
	f.eng.Run()
	if !done || gotErr == nil {
		t.Fatalf("deploy = (%v, done=%v)", gotErr, done)
	}
	if f.d.SiteNodes["A"].Node.Contexts() != 0 {
		t.Error("site A VM survived rollback")
	}
	if got := f.d.SiteNodes["A"].NM.Available(capability.CPU); got != 4 {
		t.Errorf("site A capacity = %v after rollback", got)
	}
}

func TestNetDeployerUnknownSite(t *testing.T) {
	f := newNetDepFixture(t)
	var stockErr error
	f.d.StockOverNet(1, 0, time.Hour, []string{"Z"}, func(err error) { stockErr = err })
	f.eng.Run()
	if !errors.Is(stockErr, ErrDeployFailed) {
		t.Errorf("stock unknown site: %v", stockErr)
	}
	var depErr error
	f.d.DeploySliceOverNet("svc", "smhost", f.sm, 1, 0, time.Hour, []string{"Z"},
		func(_ *vm.Slice, err error) { depErr = err })
	f.eng.Run()
	if !errors.Is(depErr, ErrDeployFailed) {
		t.Errorf("deploy unknown site: %v", depErr)
	}
}

func TestNetDeployerLatencyScalesWithSiteDistance(t *testing.T) {
	// Two deployments to the near and far site: setup time must order by
	// distance (A at x=20 vs C at x=60).
	measure := func(site string) time.Duration {
		f := newNetDepFixture(t)
		f.d.StockOverNet(2, 0, time.Hour, []string{site}, func(error) {})
		f.eng.Run()
		start := f.eng.Now()
		var setup time.Duration
		f.d.DeploySliceOverNet("svc", "smhost", f.sm, 1, 0, time.Hour, []string{site},
			func(s *vm.Slice, err error) {
				if err != nil {
					t.Fatal(err)
				}
				setup = f.eng.Now() - start
			})
		f.eng.Run()
		return setup
	}
	near, far := measure("A"), measure("C")
	if far <= near {
		t.Errorf("far-site setup %v <= near-site %v", far, near)
	}
	_ = fmt.Sprint(near, far)
}
