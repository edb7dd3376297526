package core

import (
	"time"

	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/servicemgr"
	"repro/internal/sim"
)

// DelegationResult fingerprints TraceDelegation's run: the events its
// engine fired, their digest and checkpoints (sim.Engine.Digest, Marks).
type DelegationResult struct {
	Events, Digest uint64
	Marks          []sim.Mark
}

// TraceDelegation runs a small usage-delegation lifecycle with the obs
// layer on and returns the engine's fingerprint with the tracer, as
// Figure2Traced does: a deployer stocks tickets from three
// PlanetLab sites, a service manager deploys a two-PoP service, one site
// fails (triggering a failover redeploy to the spare), recovers, and a
// reconcile pass confirms the service is back at strength. The resulting
// trace shows the full causal chain broker.stock → svc.start →
// broker.deploy → sharp.issue/redeem, then svc.site_failed → the
// replacement deploy.
func TraceDelegation(seed int64) (*DelegationResult, *obs.Tracer, error) {
	specs := lineOf(3, "s%02d", 10, SiteSpec{Y: 5, Nodes: 2, Policy: PlanetLabSitePolicy()})
	f := Build(StackPlanetLab, Config{Seed: seed, StopPushers: true, Trace: true}, specs)
	tr := f.Tracer

	now := f.Eng.Now()
	horizon := now + 24*time.Hour
	if err := f.Deployer.Stock(2, now, horizon, "s00", "s01", "s02"); err != nil {
		return nil, tr, err
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
		return nil, tr, err
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
	res := &DelegationResult{Marks: f.Eng.Marks()}
	res.Events, res.Digest = f.Eng.Digest()
	return res, tr, nil
}
