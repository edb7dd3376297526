package core

import (
	"time"

	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/servicemgr"
)

// TraceDelegation runs a small usage-delegation lifecycle with the obs
// layer on and returns the tracer: a deployer stocks tickets from three
// PlanetLab sites, a service manager deploys a two-PoP service, one site
// fails (triggering a failover redeploy to the spare), recovers, and a
// reconcile pass confirms the service is back at strength. The resulting
// trace shows the full causal chain broker.stock → svc.start →
// broker.deploy → sharp.issue/redeem, then svc.site_failed → the
// replacement deploy.
func TraceDelegation(seed int64) (*obs.Tracer, error) {
	specs := lineOf(3, "s%02d", 10, SiteSpec{Y: 5, Nodes: 2, Policy: PlanetLabSitePolicy()})
	f := Build(StackPlanetLab, Config{Seed: seed, StopPushers: true, Trace: true}, specs)
	tr := f.Tracer

	now := f.Eng.Now()
	horizon := now + 24*time.Hour
	if err := f.Deployer.Stock(2, now, horizon, "s00", "s01", "s02"); err != nil {
		return tr, err
	}
	sm := identity.NewPrincipal("trace-sm", f.Rng)
	mgr := servicemgr.New(f.Eng, f.Deployer, sm, servicemgr.Config{
		Name:       "traced-svc",
		Target:     2,
		CPUPerSite: 1,
		Candidates: []string{"s00", "s01", "s02"},
		Lease:      24 * time.Hour,
	})
	mgr.SetTracer(tr)
	if err := mgr.Start(); err != nil {
		return tr, err
	}

	// An hour in, the first site dies; the manager fails over to the
	// spare. The site later recovers and a reconcile pass runs clean.
	f.Eng.At(now+time.Hour, func() {
		f.Net.SetDown("gk-s00", true)
		mgr.SiteFailed("s00")
	})
	f.Eng.At(now+3*time.Hour, func() {
		f.Net.SetDown("gk-s00", false)
		mgr.SiteRecovered("s00")
		mgr.Reconcile()
	})
	f.Eng.RunUntil(now + 4*time.Hour)
	mgr.Stop()
	tr.SampleGauges()
	return tr, nil
}
