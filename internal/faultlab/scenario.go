package faultlab

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/identity"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/servicemgr"
	"repro/internal/sim"
	"repro/internal/trust"
)

// ChaosConfig shapes the chaos scenario: a hybrid federation running a
// managed service and a steady GRAM job stream while faults land.
type ChaosConfig struct {
	// Sites is the number of (identical, fully ceding) member sites.
	Sites int
	// Target is the managed service's desired points of presence.
	Target int
	// CPUPerSite is the service's per-PoP resource ask.
	CPUPerSite float64
	// Horizon is how long faults may land; Converge is the healed settling
	// time before the final audit.
	Horizon  time.Duration
	Converge time.Duration
	// Refresh is the MDS soft-state period (TTL is 2×Refresh).
	Refresh time.Duration
	// JobEvery paces the background GRAM submission stream.
	JobEvery time.Duration
	// AuditEvery paces mid-run invariant audits.
	AuditEvery time.Duration
	// Trace enables the obs tracing layer for the run; the tracer comes
	// back on Report.Tracer. Off by default: the determinism tests compare
	// traced and untraced runs for identical outcomes.
	Trace bool
	// Lease is the managed service's lease term. Zero keeps the legacy
	// behaviour of a single lease outliving the whole run; a short term
	// makes keepalive renewal load-bearing.
	Lease time.Duration
	// ReconcileEvery, when positive, runs a periodic repair pass in
	// addition to the event-driven fault hooks — the only way silently
	// crashed sites get replaced before the final heal.
	ReconcileEvery time.Duration
	// Resilience wires the retry/breaker/keepalive kit through the stack
	// (core.Config.Resilience) and routes the job stream through the
	// retrying submit path.
	Resilience bool
	// Byzantine, when enabled, populates a multi-broker ticket exchange
	// with honest and adversarial sellers, posts collateral at per-site
	// banks, feeds a reputation scoreboard from redeem outcomes, and runs
	// a client-side attack ticker. Zero value keeps the run byte-identical
	// to a pre-byzantine scenario.
	Byzantine ByzantineConfig
}

// DefaultChaosConfig returns the scenario gridlab chaos runs.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Sites:      6,
		Target:     3,
		CPUPerSite: 0.5,
		Horizon:    8 * time.Hour,
		Converge:   30 * time.Minute,
		Refresh:    2 * time.Minute,
		JobEvery:   10 * time.Minute,
		AuditEvery: 5 * time.Minute,
	}
}

// SiteNames returns the scenario's member site names.
func (cfg ChaosConfig) SiteNames() []string {
	names := make([]string, cfg.Sites)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	return names
}

// Report is the outcome of one chaos run.
type Report struct {
	Seed     int64
	Profile  string
	Schedule *Schedule
	// Trace is the injector's apply/revoke log.
	Trace []string
	// Violations holds every invariant breach, mid-run and final, deduped.
	Violations []Violation
	// Summary is a metrics table of the run's outcome. It deliberately
	// excludes seed and profile so a quiet-profile run and a no-injector
	// baseline with the same seed render byte-identical summaries.
	Summary string
	// Tracer holds the run's obs tracer when ChaosConfig.Trace was set.
	Tracer *obs.Tracer
	// Availability is the fraction of the run the service spent at full
	// strength: 1 − degraded/total.
	Availability float64
	// LeaseLapses counts PoPs torn down by the lease watchdog.
	LeaseLapses int
	// Resilience carries the kit's counters when ChaosConfig.Resilience
	// was set (nil otherwise).
	Resilience *ResilienceStats
	// Flags holds the non-default chaos flags needed to reproduce the
	// run's configuration ("" for the default scenario).
	Flags string
	// Byzantine carries the adversarial-market outcome when
	// ChaosConfig.Byzantine was enabled (nil otherwise).
	Byzantine *ByzantineStats
}

// ResilienceStats snapshots the resilience kit's counters after a run.
type ResilienceStats struct {
	// Renewals / RenewGiveups count keepalive cycles that extended a
	// lease vs. exhausted their budget.
	Renewals, RenewGiveups int
	// Trips / Recloses count breaker state transitions across all sites.
	Trips, Recloses int
	// Retries counts re-attempts the shared executor scheduled.
	Retries int
	// OpenSites lists breakers not closed at the end of the run — after
	// HealAll and the converge window this should be empty.
	OpenSites []string
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Repro returns the command line that reproduces this exact run.
func (r *Report) Repro() string {
	cmd := "chaos"
	if r.Byzantine != nil {
		cmd = "byzantine"
	}
	s := fmt.Sprintf("gridlab %s -seed %d -profile %s", cmd, r.Seed, r.Profile)
	if r.Flags != "" {
		s += " " + r.Flags
	}
	return s
}

// reproFlags renders the non-default knobs for Report.Flags.
func reproFlags(cfg ChaosConfig) string {
	var fl []string
	if cfg.Resilience {
		fl = append(fl, "-resilience")
	}
	if cfg.Lease > 0 {
		fl = append(fl, fmt.Sprintf("-lease %s", cfg.Lease))
	}
	if cfg.ReconcileEvery > 0 {
		fl = append(fl, fmt.Sprintf("-reconcile %s", cfg.ReconcileEvery))
	}
	return strings.Join(fl, " ")
}

// RunChaos generates the (seed, profile) schedule, runs the scenario under
// it, and audits the invariants. Identical inputs yield identical reports.
func RunChaos(seed int64, p Profile, cfg ChaosConfig) *Report {
	c := newChaosRun(seed, cfg)
	c.arm(Generate(seed, p, cfg.SiteNames(), cfg.Horizon))
	return c.finish()
}

// chaosRun is one scenario instance with every piece of mutable run state
// held in fields rather than closure captures. The struct is registered as
// an engine snapshot root, so a snapshot taken mid-run rewinds the whole
// scenario — job counters, audit dedup state, injector
// bookkeeping — along with the federation underneath it.
type chaosRun struct {
	cfg   ChaosConfig
	seed  int64
	names []string
	end   time.Duration

	f      *core.Federation
	mgr    *servicemgr.Manager
	proxy  *identity.Credential
	jobRng *rand.Rand

	gkSites                      []*core.Site
	submitted, accepted, refused int
	next                         int

	ttlBound   time.Duration
	seen       map[string]struct{}
	violations []Violation

	jobTicker, reconcileTicker, auditTicker *sim.Ticker
	inj                                     *Injector

	// byz holds the byzantine market layer when ChaosConfig.Byzantine is
	// enabled (nil otherwise). Reachable from the snapshot root, so the
	// scoreboard, banks, and seller state rewind on fork with the rest.
	byz *byzRun
}

// newChaosRun builds the federation and starts the steady-state machinery
// (service manager, job stream, reconcile loop) but installs no faults and
// arms no audits: this is the profile-independent prefix of a run.
func newChaosRun(seed int64, cfg ChaosConfig) *chaosRun {
	names := cfg.SiteNames()
	specs := make([]core.SiteSpec, cfg.Sites)
	for i, name := range names {
		specs[i] = core.SiteSpec{
			Name: name,
			X:    12 * float64(i+1), Y: float64((i * 17) % 50),
			Nodes: 2, ClusterSlots: 8,
			Policy: core.PlanetLabSitePolicy(),
		}
	}
	f := core.Build(core.StackHybrid, core.Config{
		Seed: seed, RefreshInterval: cfg.Refresh, Trace: cfg.Trace,
		Resilience: cfg.Resilience,
	}, specs)
	c := &chaosRun{
		cfg:   cfg,
		seed:  seed,
		names: names,
		end:   cfg.Horizon + cfg.Converge,
		f:     f,
		seen:  make(map[string]struct{}),
	}
	f.Eng.SnapRoot("faultlab.chaos", c)

	// Ticket stock for the service manager, valid past the audit.
	for _, s := range f.JoinedSites() {
		if s.Runtime != nil {
			s.Runtime.Authority.SetOversellFactor(1e6)
		}
	}
	if err := f.Deployer.Stock(200, 0, c.end+time.Hour, names...); err != nil {
		panic(fmt.Sprintf("faultlab: stocking deployer: %v", err))
	}
	if cfg.Byzantine.Enabled() {
		c.byz = newByzRun(f, cfg.Byzantine, c.end+time.Hour)
	}
	lease := cfg.Lease
	if lease == 0 {
		lease = c.end + time.Hour // legacy: one lease outlives the run
	}
	sm := identity.NewPrincipal("chaos-sm", f.Rng)
	c.mgr = servicemgr.New(f.Eng, f.Deployer, sm, servicemgr.Config{
		Name:       "chaos-svc",
		Target:     cfg.Target,
		CPUPerSite: cfg.CPUPerSite,
		Candidates: names,
		Lease:      lease,
	})
	if f.Tracer != nil {
		c.mgr.SetTracer(f.Tracer)
	}
	if f.Resilience != nil {
		c.mgr.SetResilience(f.Resilience)
	}
	if c.byz != nil {
		c.mgr.SetTrust(c.byz.scores)
	}
	if err := c.mgr.Start(); err != nil {
		panic(fmt.Sprintf("faultlab: starting service: %v", err))
	}
	// Declared outages drive the management plane; silent crashes must be
	// survived through soft state alone.
	f.AddFaultObserver(func(site string, down bool) {
		if down {
			c.mgr.SiteFailed(site)
		} else {
			c.mgr.SiteRecovered(site)
			c.mgr.Reconcile()
		}
	})

	// Background GRAM load: a probe job every JobEvery, round-robin over
	// the member gatekeepers, submitted from the VO broker host.
	user := f.User("chaos-user")
	proxy, err := user.Delegate("chaos-user/p", f.Eng.Now(), c.end+time.Hour, nil, f.Rng)
	if err != nil {
		panic(fmt.Sprintf("faultlab: delegating proxy: %v", err))
	}
	c.proxy = proxy
	c.jobRng = rand.New(rand.NewSource(seed + 1))
	c.gkSites = f.JoinedSites()
	c.jobTicker = f.Eng.NewTicker(cfg.JobEvery, c.submitJob)

	if cfg.ReconcileEvery > 0 {
		c.reconcileTicker = f.Eng.NewTicker(cfg.ReconcileEvery, func() {
			c.mgr.Reconcile()
			if f.Resilience != nil {
				// Half-open trials for written-off sites the service no
				// longer visits on its own.
				for _, site := range f.Resilience.Breakers.NotClosed() {
					f.Deployer.Probe(site)
				}
			}
		})
	}
	if c.byz != nil {
		c.byz.arm(c)
	}
	return c
}

// submitJob is one tick of the background GRAM load.
func (c *chaosRun) submitJob() {
	s := c.gkSites[c.next%len(c.gkSites)]
	c.next++
	c.submitted++
	req := gram.SubmitRequest{
		Cred: c.proxy,
		Spec: gram.JobSpec{
			RSL:       "&(executable=probe)(count=1)(maxWallTime=1800)",
			ActualRun: time.Duration(1+c.jobRng.Intn(8)) * time.Minute,
		},
	}
	done := func(_ gram.SubmitReply, err error) {
		if err != nil {
			c.refused++
			return
		}
		c.accepted++
	}
	if c.f.Resilience != nil {
		gram.SubmitWithRetry(c.f.Resilience.Retry, c.f.Resilience.Breakers.For(s.Spec.Name),
			c.f.Net, "vo-broker", s.Host, req, 30*time.Second, done)
	} else {
		gram.Submit(c.f.Net, "vo-broker", s.Host, req, 30*time.Second, done)
	}
}

// record folds invariant breaches into the run's deduped violation log,
// stamping each new one with the virtual time it was first seen.
func (c *chaosRun) record(vs []Violation) {
	for _, v := range vs {
		key := v.String()
		if _, dup := c.seen[key]; dup {
			continue
		}
		c.seen[key] = struct{}{}
		v.at = c.f.Eng.Now()
		c.violations = append(c.violations, v)
	}
}

// scoreboards returns the reputation scoreboards to bound-check during
// audits (none when the byzantine layer is off).
func (c *chaosRun) scoreboards() []*trust.Scoreboard {
	if c.byz == nil {
		return nil
	}
	return []*trust.Scoreboard{c.byz.scores}
}

// arm installs the fault schedule (nil for a baseline run) and starts the
// mid-run invariant audits. Event creation order — job ticker, reconcile
// ticker, injector windows, audit ticker — matches the historical inline
// scenario exactly, so reports are byte-identical to pre-refactor runs.
func (c *chaosRun) arm(sched *Schedule) {
	if sched != nil {
		c.inj = Install(c.f, sched)
	}
	// Mid-run audits: structural invariants only (service strength is a
	// convergence property, judged after heal + settle).
	c.ttlBound = 2*c.cfg.Refresh + time.Second
	c.auditTicker = c.f.Eng.NewTicker(c.cfg.AuditEvery, func() {
		c.record(CheckFederation(c.f, CheckOpts{
			TTLBound:      c.ttlBound,
			LeaseManagers: []*servicemgr.Manager{c.mgr},
			Scoreboards:   c.scoreboards(),
		}))
	})
	if armHook != nil {
		armHook(c)
	}
}

// armHook is a test seam: the bisect tests use it to plant a scheduled
// invariant breach at a known virtual time (the healthy scenario holds its
// invariants by design, so there is nothing real to bisect to). Always nil
// outside tests.
var armHook func(*chaosRun)

// finish drives the scenario to its end, heals, audits, and assembles the
// report.
func (c *chaosRun) finish() *Report {
	f := c.f
	f.Eng.RunUntil(c.cfg.Horizon)
	if c.inj != nil {
		c.inj.HealAll()
	}
	c.mgr.Reconcile()
	f.Eng.RunUntil(c.end)
	c.jobTicker.Stop()
	c.auditTicker.Stop()
	if c.reconcileTicker != nil {
		c.reconcileTicker.Stop()
	}
	if c.byz != nil {
		if c.byz.attackTicker != nil {
			c.byz.attackTicker.Stop()
		}
		if c.byz.shopTicker != nil {
			c.byz.shopTicker.Stop()
		}
	}

	feasible := 0
	for _, name := range c.names {
		if !f.SiteDown(name) && f.Deployer.Inventory(name) >= c.cfg.CPUPerSite {
			feasible++
		}
	}
	c.record(CheckFederation(f, CheckOpts{
		Managers:      []*servicemgr.Manager{c.mgr},
		LeaseManagers: []*servicemgr.Manager{c.mgr},
		FeasibleSites: feasible,
		TTLBound:      c.ttlBound,
		Scoreboards:   c.scoreboards(),
	}))

	var done, failed int
	for _, s := range f.JoinedSites() {
		if s.Gatekeeper == nil {
			continue
		}
		for _, j := range s.Gatekeeper.Jobs() {
			switch j.State() {
			case gram.Done:
				done++
			case gram.Failed:
				failed++
			}
		}
	}

	applied, revoked := 0, 0
	var trace []string
	var sched *Schedule
	if c.inj != nil {
		applied, revoked = c.inj.AppliedN, c.inj.RevokedN
		trace = c.inj.Trace()
		sched = c.inj.sched
	}
	// Resilience counters: plain zeros when the kit is off, so the summary
	// table keeps the same rows (and stays byte-comparable) either way.
	renewals, giveups, trips, recloses, retries := 0, 0, 0, 0, 0
	if f.Resilience != nil {
		renewals = f.Resilience.Renewer.RenewedN
		giveups = f.Resilience.Renewer.GiveupsN
		trips = f.Resilience.Breakers.Trips()
		recloses = f.Resilience.Breakers.Recloses()
		retries = f.Resilience.Retry.RetriesN
	}
	availability := 1 - float64(c.mgr.DegradedSoFar())/float64(c.end)
	tbl := metrics.NewTable("metric", "value")
	tbl.AddRow("sites joined", len(f.JoinedSites()))
	tbl.AddRow("jobs submitted", c.submitted)
	tbl.AddRow("jobs accepted", c.accepted)
	tbl.AddRow("jobs refused", c.refused)
	tbl.AddRow("jobs done", done)
	tbl.AddRow("jobs failed", failed)
	tbl.AddRow("service running", c.mgr.Running())
	tbl.AddRow("service target", c.mgr.Target())
	tbl.AddRow("service redeploys", c.mgr.RedeployN)
	tbl.AddRow("service degraded", c.mgr.DegradedSoFar().String())
	tbl.AddRow("service availability", fmt.Sprintf("%.4f", availability))
	tbl.AddRow("lease lapses", c.mgr.LeaseLapsedN)
	tbl.AddRow("lease renewals", renewals)
	tbl.AddRow("renew giveups", giveups)
	tbl.AddRow("breaker trips", trips)
	tbl.AddRow("breaker recloses", recloses)
	tbl.AddRow("op retries", retries)
	tbl.AddRow("faults applied", applied)
	tbl.AddRow("faults revoked", revoked)
	tbl.AddRow("violations", len(c.violations))
	// Byzantine rows are appended after the fixed block, so a run with
	// the layer off renders the exact historical summary.
	var byzStats *ByzantineStats
	if c.byz != nil {
		byzStats = c.byz.stats(c, tbl)
	}

	f.Tracer.SampleGauges()
	rep := &Report{
		Seed:     c.seed,
		Schedule: sched,
		Trace:    trace,
		// Copied, not aliased: a later Fork rewinds c.violations to a
		// shorter prefix of the same backing array, and the next
		// timeline's appends would otherwise scribble over this report.
		Violations:   append([]Violation(nil), c.violations...),
		Summary:      tbl.String(),
		Tracer:       f.Tracer,
		Availability: availability,
		LeaseLapses:  c.mgr.LeaseLapsedN,
		Flags:        reproFlags(c.cfg),
	}
	if f.Resilience != nil {
		rep.Resilience = &ResilienceStats{
			Renewals: renewals, RenewGiveups: giveups,
			Trips: trips, Recloses: recloses, Retries: retries,
			OpenSites: f.Resilience.Breakers.NotClosed(),
		}
	}
	rep.Byzantine = byzStats
	if sched != nil {
		rep.Profile = sched.Profile
	}
	return rep
}

// SweepResult aggregates a seed × profile sweep.
type SweepResult struct {
	// Runs is the number of chaos runs executed.
	Runs int
	// ViolationN is the total violation count across all runs.
	ViolationN int
	// AvailabilitySum accumulates per-run availability; divide by Runs
	// for the sweep mean.
	AvailabilitySum float64
	// LeaseLapses is the total watchdog teardown count across all runs.
	LeaseLapses int
	// First is the first violating report in sweep order (nil when clean):
	// its Repro() line is the minimal reproduction of the failure.
	First *Report
}

// OK reports a clean sweep.
func (r *SweepResult) OK() bool { return r.First == nil }

// Add folds one report into the aggregate. internal/perf/chaos reduces
// through this method in seed-major grid order, which is what makes its
// result identical at any worker count.
func (r *SweepResult) Add(rep *Report) {
	r.Runs++
	r.ViolationN += len(rep.Violations)
	r.AvailabilitySum += rep.Availability
	r.LeaseLapses += rep.LeaseLapses
	if !rep.OK() && r.First == nil {
		r.First = rep
	}
}

// String summarizes the sweep for CLI output.
func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d runs, %d violations\n", r.Runs, r.ViolationN)
	if r.First != nil {
		fmt.Fprintf(&b, "first failure: seed=%d profile=%s\n", r.First.Seed, r.First.Profile)
		for _, v := range r.First.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		fmt.Fprintf(&b, "repro: %s\n", r.First.Repro())
	}
	return b.String()
}
