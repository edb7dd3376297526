package faultlab

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/servicemgr"
	"repro/internal/silk"
)

// TestAuditAllocFree pins what the mid-run audit costs on a clean world:
// nothing. CheckFederation walks jobs, lease records, contexts, ports,
// joined sites and active sites through readers over live state, so a
// violation-free audit allocates no object however large the site grows.
func TestAuditAllocFree(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Resilience = true
	cfg.Lease = 90 * time.Minute
	cfg.ReconcileEvery = 15 * time.Minute
	p, err := ProfileByName("crashes")
	if err != nil {
		t.Fatal(err)
	}
	c := newChaosRun(1, cfg)
	c.arm(Generate(1, p, cfg.SiteNames(), cfg.Horizon))
	c.f.Eng.RunUntil(cfg.Horizon / 2)

	// No chaos VM binds a port; here each VM at the first PlanetLab site
	// binds one, so the port cross-check has claims to walk.
	ports := 0
	c.f.EachJoinedSite(func(s *core.Site) {
		if s.Runtime == nil || ports > 0 {
			return
		}
		s.Runtime.Node.EachContext(func(ctx *silk.Context) {
			if err := ctx.OpenPort(8080 + ports); err != nil {
				t.Fatal(err)
			}
			ports++
		})
	})

	// The audit must have something to walk on every path.
	var jobs, leases, contexts, outages, active int
	c.f.EachJoinedSite(func(s *core.Site) {
		if s.Gatekeeper != nil {
			s.Gatekeeper.EachJob(func(*gram.Job) { jobs++ })
			if len(c.f.DownLog(s.Spec.Name)) > 0 {
				outages++
			}
		}
		if s.Runtime != nil {
			leases += s.Runtime.Authority.Ledger().LiveLeases()
			s.Runtime.Node.EachContext(func(*silk.Context) { contexts++ })
		}
	})
	c.mgr.EachActiveSite(func(string) { active++ })
	if jobs == 0 || leases == 0 || contexts == 0 || ports == 0 || outages == 0 || active == 0 {
		t.Fatalf("thin world: %d jobs, %d leases, %d contexts, %d ports, %d sites with outages, %d active sites",
			jobs, leases, contexts, ports, outages, active)
	}

	opts := CheckOpts{
		TTLBound:      c.ttlBound,
		LeaseManagers: []*servicemgr.Manager{c.mgr},
	}
	if vs := CheckFederation(c.f, opts); len(vs) != 0 {
		t.Fatalf("audit not clean: %v", vs)
	}
	if n := testing.AllocsPerRun(20, func() { CheckFederation(c.f, opts) }); n != 0 {
		t.Errorf("clean CheckFederation allocates %v objects, want 0", n)
	}
}
