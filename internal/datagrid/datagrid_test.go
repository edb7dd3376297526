package datagrid

import (
	"errors"
	"testing"
	"time"

	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/sim"
	"repro/internal/simnet"
)

type fixture struct {
	eng   *sim.Engine
	net   *simnet.Network
	svc   *TransferService
	alice *identity.Credential
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 40, 0)
	net.AddSite("R", 20, 15)
	net.AddHost("src", "A", 1e6)
	net.AddHost("dst", "B", 1e6)
	net.AddHost("relay", "R", 1e6)
	net.AddHost("src2", "A", 5e5)

	rng := eng.ForkRand()
	ca := identity.NewCA("ca", 1e6*time.Hour, rng)
	aliceP := identity.NewPrincipal("alice", rng)
	alice := identity.UserCredential(aliceP, ca.IssueUser(aliceP, 0, 1e5*time.Hour))
	gm := gsi.NewGridmap()
	gm.Map("alice", "u1")
	svc := &TransferService{
		Net:    net,
		Policy: &gsi.SitePolicy{Auth: &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(ca)}, Gridmap: gm},
	}
	return &fixture{eng: eng, net: net, svc: svc, alice: alice}
}

func TestReplicaCatalogTwoTier(t *testing.T) {
	lrcA := NewLRC("A")
	lrcB := NewLRC("B")
	lrcA.Register("lfn://climate/run1", Replica{Host: "src", Bytes: 1e6})
	lrcB.Register("lfn://climate/run1", Replica{Host: "dst", Bytes: 1e6})
	lrcB.Register("lfn://climate/run2", Replica{Host: "dst", Bytes: 2e6})
	rli := NewRLI()
	rli.Attach(lrcA)
	rli.Attach(lrcB)
	reps, err := rli.Locate("lfn://climate/run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Host != "dst" || reps[1].Host != "src" {
		t.Errorf("replicas = %+v", reps)
	}
	if _, err := rli.Locate("lfn://nope"); !errors.Is(err, ErrUnknownLogical) {
		t.Errorf("unknown: %v", err)
	}
	// Late registration becomes visible after refresh.
	lrcA.Register("lfn://late", Replica{Host: "src", Bytes: 1})
	if _, err := rli.Locate("lfn://late"); err == nil {
		t.Error("stale index knew unfetched name")
	}
	rli.Refresh("A")
	if _, err := rli.Locate("lfn://late"); err != nil {
		t.Errorf("after refresh: %v", err)
	}
}

func TestEstimatePathCleanAndLossy(t *testing.T) {
	f := newFixture(t)
	clean, err := EstimatePath(f.net, "src", "dst", nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.RateBps != 1e6 || clean.Loss != 0 {
		t.Errorf("clean = %+v", clean)
	}
	f.net.SetLoss("A", "B", 0.01)
	lossy, _ := EstimatePath(f.net, "src", "dst", nil)
	if lossy.RateBps >= clean.RateBps {
		t.Errorf("loss did not cap rate: %v", lossy.RateBps)
	}
	if lossy.Loss < 0.0099 || lossy.Loss > 0.0101 {
		t.Errorf("loss = %v", lossy.Loss)
	}
	// Relay path accumulates RTT but avoids the lossy segment.
	viaRelay, _ := EstimatePath(f.net, "src", "dst", []string{"relay"})
	if viaRelay.RateBps <= lossy.RateBps {
		t.Errorf("relay %v <= direct %v on lossy net", viaRelay.RateBps, lossy.RateBps)
	}
}

func TestBestPathsRanksRelayFirstOnLossyDirect(t *testing.T) {
	f := newFixture(t)
	f.net.SetLoss("A", "B", 0.02)
	paths := BestPaths(f.net, "src", "dst", []string{"relay", "src2"}, 2)
	if len(paths) != 2 {
		t.Fatalf("paths = %d", len(paths))
	}
	if len(paths[0].Relays) != 1 || paths[0].Relays[0] != "relay" {
		t.Errorf("best path = %+v, want via relay", paths[0])
	}
}

func TestBestPathsSkipsDeadRelays(t *testing.T) {
	f := newFixture(t)
	f.net.SetDown("relay", true)
	paths := BestPaths(f.net, "src", "dst", []string{"relay"}, 3)
	for _, p := range paths {
		if len(p.Relays) > 0 && p.Relays[0] == "relay" {
			t.Error("dead relay ranked")
		}
	}
}

func TestTransferAuthorized(t *testing.T) {
	f := newFixture(t)
	var flow *simnet.Flow
	var err error
	f.svc.Transfer(f.alice, "src", "dst", 1e6, TransferOpts{Streams: 2}, func(fl *simnet.Flow, e error) {
		flow, err = fl, e
	})
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if flow == nil {
		t.Fatal("transfer incomplete")
	}
	if f.svc.TransferN != 1 || f.svc.BytesMoved != 1e6 {
		t.Errorf("counters %d/%v", f.svc.TransferN, f.svc.BytesMoved)
	}
}

func TestTransferUnauthorized(t *testing.T) {
	f := newFixture(t)
	rng := f.eng.ForkRand()
	otherCA := identity.NewCA("other", 1e6*time.Hour, rng)
	evilP := identity.NewPrincipal("eve", rng)
	evil := identity.UserCredential(evilP, otherCA.IssueUser(evilP, 0, 1e5*time.Hour))
	var err error
	f.svc.Transfer(evil, "src", "dst", 1e6, TransferOpts{}, func(_ *simnet.Flow, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, ErrUnauthorized) {
		t.Errorf("err = %v", err)
	}
}

func TestMultipathTransferBeatsDirectOnLossyPath(t *testing.T) {
	// The paper's §5 claim, end to end: a PlanetLab overlay service
	// improves a Globus data-grid transfer.
	f := newFixture(t)
	f.net.SetLoss("A", "B", 0.02)
	var direct, multi *simnet.Flow
	f.svc.Transfer(f.alice, "src", "dst", 2e6, TransferOpts{Streams: 2}, func(fl *simnet.Flow, e error) { direct = fl })
	f.eng.Run()

	f2 := newFixture(t)
	f2.net.SetLoss("A", "B", 0.02)
	f2.svc.Transfer(f2.alice, "src", "dst", 2e6, TransferOpts{Streams: 2, Relays: []string{"relay"}}, func(fl *simnet.Flow, e error) { multi = fl })
	f2.eng.Run()

	if direct == nil || multi == nil {
		t.Fatal("transfers incomplete")
	}
	if multi.ThroughputBps() <= direct.ThroughputBps() {
		t.Errorf("multipath %.0f <= direct %.0f", multi.ThroughputBps(), direct.ThroughputBps())
	}
}

func TestFetchBestPicksClosestReplica(t *testing.T) {
	f := newFixture(t)
	// Two replicas: one at src (1 MB/s link) and one at src2 (0.5 MB/s
	// link). FetchBest must pick src.
	lrc := NewLRC("A")
	lrc.Register("lfn://d", Replica{Host: "src", Bytes: 1e6})
	lrc.Register("lfn://d", Replica{Host: "src2", Bytes: 1e6})
	rli := NewRLI()
	rli.Attach(lrc)
	var flow *simnet.Flow
	var err error
	f.svc.FetchBest(f.alice, rli, "lfn://d", "dst", TransferOpts{}, func(fl *simnet.Flow, e error) { flow, err = fl, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if flow.From != "src" {
		t.Errorf("fetched from %q, want src", flow.From)
	}
	// Unknown name surfaces.
	var err2 error
	f.svc.FetchBest(f.alice, rli, "lfn://nope", "dst", TransferOpts{}, func(_ *simnet.Flow, e error) { err2 = e })
	f.eng.Run()
	if !errors.Is(err2, ErrUnknownLogical) {
		t.Errorf("unknown fetch: %v", err2)
	}
}

func TestTransferViaDeadRelayFails(t *testing.T) {
	f := newFixture(t)
	f.net.SetDown("relay", true)
	var err error
	f.svc.Transfer(f.alice, "src", "dst", 1e6, TransferOpts{Relays: []string{"relay"}},
		func(_ *simnet.Flow, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, simnet.ErrHostDown) {
		t.Errorf("dead relay transfer: %v", err)
	}
}

func TestFetchBestSkipsDownReplicaHost(t *testing.T) {
	f := newFixture(t)
	lrc := NewLRC("A")
	lrc.Register("lfn://d", Replica{Host: "src", Bytes: 1e6})
	lrc.Register("lfn://d", Replica{Host: "src2", Bytes: 1e6})
	rli := NewRLI()
	rli.Attach(lrc)
	// The better replica host dies; FetchBest must fall back to src2.
	f.net.SetDown("src", true)
	var flow *simnet.Flow
	var err error
	f.svc.FetchBest(f.alice, rli, "lfn://d", "dst", TransferOpts{}, func(fl *simnet.Flow, e error) {
		flow, err = fl, e
	})
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if flow.From != "src2" {
		t.Errorf("fetched from %q, want src2 (fallback)", flow.From)
	}
	// All replicas down -> ErrNoReplica.
	f.net.SetDown("src2", true)
	var err2 error
	f.svc.FetchBest(f.alice, rli, "lfn://d", "dst", TransferOpts{}, func(_ *simnet.Flow, e error) { err2 = e })
	f.eng.Run()
	if !errors.Is(err2, ErrNoReplica) {
		t.Errorf("all down: %v", err2)
	}
}

func TestTransferDuringPartitionFails(t *testing.T) {
	f := newFixture(t)
	f.net.Partition("A", "B", true)
	var err error
	f.svc.Transfer(f.alice, "src", "dst", 1e6, TransferOpts{}, func(_ *simnet.Flow, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, simnet.ErrPartitioned) {
		t.Errorf("partitioned transfer: %v", err)
	}
}
