// Package servicemgr implements the application-level service manager
// the paper's PlanetLab sections presuppose: a controller that keeps a
// long-lived network service at its target number of points of presence,
// buying resources through a SHARP broker and redeploying around site
// failures. "It is envisaged that high-value services ... will be built
// by the user community" (§2.2) — this is the management half of such a
// service, and the live counterpart of experiment E10's availability
// math.
//
// The manager owns its leases end to end: every deployment's SHARP
// leases are recorded, a watchdog enforces their expiry (a PoP whose
// lease lapsed is down, whatever the VM thinks), and — when a resilience
// kit is installed — a keepalive loop renews them before they lapse,
// retries failed deployments with deterministic backoff, and skips
// failover candidates whose circuit breaker has written the site off.
package servicemgr

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/trust"
	"repro/internal/vm"
)

// Controller errors.
var (
	ErrAlreadyStarted = errors.New("servicemgr: already started")
	ErrNoSpareSites   = errors.New("servicemgr: no spare site with stock")

	errDeployFailed = errors.New("servicemgr: deploy attempt failed")
)

// Config shapes a managed service.
type Config struct {
	Name string
	// Target is the desired number of simultaneous points of presence.
	Target int
	// CPUPerSite is the per-PoP resource ask.
	CPUPerSite float64
	// Candidates is the ordered site preference list (must have at least
	// Target entries to reach full strength).
	Candidates []string
	// Lease bounds each deployment's resource claim.
	Lease time.Duration
}

// Manager keeps a service at strength across failures.
type Manager struct {
	cfg Config
	eng *sim.Engine
	dep *broker.Deployer
	sm  *identity.Principal
	kit *resilience.Kit

	active   map[string]*vm.Slice // site -> its single-VM slice
	order    []string             // the active sites, ascending
	downAt   map[string]time.Duration
	leases   map[string][]*sharp.Lease
	leaseExp map[string]time.Duration // site -> earliest lease NotAfter
	watchdog map[string]sim.Event
	retrying map[string]bool // a background deploy retry is in flight

	// trust, when set, receives every exchange purchase outcome so the
	// manager's broker scores converge on actual redeem success.
	trust *trust.Scoreboard
	// TrustReportErrs counts scoreboard reports that were refused
	// (malformed seller names — should stay zero).
	TrustReportErrs int

	// RedeployN counts failure-driven redeployments; LeaseLapsedN counts
	// PoPs torn down because their lease expired under them; siteFailN
	// counts SiteFailed reports; DegradedTime accumulates time spent
	// below Target strength.
	RedeployN     int
	LeaseLapsedN  int
	siteFailN     int
	DegradedTime  time.Duration
	degraded      bool
	degradedSince time.Duration
	started       bool

	// tr records spans when installed (nil: tracing off).
	tr *obs.Tracer
}

// SetTracer installs an observability tracer, which reads the repair
// counts as svc.* counters. A nil tracer (the default) keeps every
// instrumentation point inert.
func (m *Manager) SetTracer(tr *obs.Tracer) {
	m.tr = tr
	tr.CounterFunc("svc.redeploys", func() uint64 { return uint64(m.RedeployN) })
	tr.CounterFunc("svc.site_failures", func() uint64 { return uint64(m.siteFailN) })
	tr.CounterFunc("svc.lease_lapses", func() uint64 { return uint64(m.LeaseLapsedN) })
	tr.GaugeFunc("svc."+m.cfg.Name+".running", func() float64 { return float64(m.Running()) })
}

// SetResilience installs the federation's resilience kit: lease
// keepalive, deploy retry, and breaker-gated failover. Call before
// Start.
func (m *Manager) SetResilience(kit *resilience.Kit) { m.kit = kit }

// SetTrust installs the broker scoreboard the manager reports exchange
// purchase outcomes to. The deployer's Exchange reads the same
// scoreboard when weighting sellers, closing the reputation loop:
// service managers keep the scores, the market consults them. Call
// before Start.
func (m *Manager) SetTrust(sb *trust.Scoreboard) { m.trust = sb }

// reportOutcomes folds one deployment's market outcomes into the
// scoreboard (no-op without SetTrust or on the house-agent path, where
// there are no outcomes).
func (m *Manager) reportOutcomes(res *broker.DeployResult) {
	if m.trust == nil || res == nil {
		return
	}
	for _, o := range res.Outcomes {
		if err := m.trust.ReportOutcome(o.Seller, o.OK); err != nil {
			m.TrustReportErrs++
		}
	}
}

// New builds a manager over an (already stocked) deployer.
func New(eng *sim.Engine, dep *broker.Deployer, sm *identity.Principal, cfg Config) *Manager {
	return &Manager{
		cfg:      cfg,
		eng:      eng,
		dep:      dep,
		sm:       sm,
		active:   make(map[string]*vm.Slice),
		downAt:   make(map[string]time.Duration),
		leases:   make(map[string][]*sharp.Lease),
		leaseExp: make(map[string]time.Duration),
		watchdog: make(map[string]sim.Event),
		retrying: make(map[string]bool),
	}
}

// Start deploys to the first Target candidate sites. Partial success is
// tolerated (the manager runs degraded and counts the time).
func (m *Manager) Start() error {
	if m.started {
		return ErrAlreadyStarted
	}
	var span obs.SpanContext
	if m.tr != nil {
		span = m.tr.Begin("svc.start",
			obs.String("service", m.cfg.Name), obs.Int("target", m.cfg.Target))
	}
	restore := m.tr.EnterScope(span)
	defer restore()
	m.started = true
	for _, site := range m.cfg.Candidates {
		if len(m.active) >= m.cfg.Target {
			break
		}
		m.tryDeploy(site)
	}
	m.accountStrength()
	if len(m.active) == 0 {
		err := fmt.Errorf("servicemgr: %s could not reach any site", m.cfg.Name)
		span.End(obs.Err(err))
		return err
	}
	span.End(obs.Int("deployed", len(m.active)))
	return nil
}

// tryDeploy attempts one site now; on failure (with a kit installed) a
// background retry keeps working the site under the kit's policy.
func (m *Manager) tryDeploy(site string) bool {
	if m.deployOnce(site) {
		return true
	}
	m.scheduleRetry(site)
	return false
}

// deployOnce is a single deployment attempt: on success the site's
// leases go under watchdog (and keepalive, when a kit is present).
func (m *Manager) deployOnce(site string) bool {
	now := m.eng.Now()
	res, err := m.dep.DeploySlice(
		fmt.Sprintf("%s@%s", m.cfg.Name, site), m.sm,
		m.cfg.CPUPerSite, now, now+m.cfg.Lease, []string{site})
	m.reportOutcomes(res)
	if err != nil {
		return false
	}
	if _, ok := m.active[site]; !ok {
		i, _ := slices.BinarySearch(m.order, site)
		m.order = slices.Insert(m.order, i, site)
	}
	m.active[site] = res.Slice
	m.leases[site] = res.Leases[site]
	m.armLease(site)
	return true
}

// scheduleRetry keeps a failed deployment alive in the background: each
// attempt re-checks that the site is still wanted, so a retry whose site
// came up some other way (or whose service stopped) ends quietly.
func (m *Manager) scheduleRetry(site string) {
	if m.kit == nil || m.retrying[site] {
		return
	}
	m.retrying[site] = true
	m.kit.Retry.Do("svc.deploy."+site, nil, nil,
		func(_ int, done func(error)) {
			if !m.wantsSite(site) {
				done(nil)
				return
			}
			if m.deployOnce(site) {
				done(nil)
				return
			}
			done(fmt.Errorf("%w: %s", errDeployFailed, site))
		},
		func(error) {
			m.retrying[site] = false
			m.accountStrength()
		})
}

// wantsSite reports whether a background retry should still pursue the
// site.
func (m *Manager) wantsSite(site string) bool {
	if !m.started || m.Running() >= m.cfg.Target {
		return false
	}
	if _, isActive := m.active[site]; isActive {
		return false
	}
	if _, isDown := m.downAt[site]; isDown {
		return false
	}
	return true
}

// armLease records the site's lease horizon, arms the expiry watchdog,
// and (with a kit) starts keepalive renewal at the configured lead.
func (m *Manager) armLease(site string) {
	leases := m.leases[site]
	if len(leases) == 0 {
		return
	}
	exp := leases[0].NotAfter
	for _, l := range leases[1:] {
		if l.NotAfter < exp {
			exp = l.NotAfter
		}
	}
	m.leaseExp[site] = exp
	m.armWatchdog(site, exp)
	if m.kit != nil {
		// No breaker at the executor layer: RenewLease runs the deployer's
		// own connectivity gate over the same breaker, and gating twice
		// would have the two layers fight over the half-open probe slot.
		m.kit.Renewer.Track(site, exp, m.cfg.Lease, nil, m.renewSite(site))
	}
}

// armWatchdog (re)schedules lease-expiry enforcement for a site.
func (m *Manager) armWatchdog(site string, exp time.Duration) {
	if ev, ok := m.watchdog[site]; ok {
		m.eng.Cancel(ev)
	}
	at := exp
	if now := m.eng.Now(); at < now {
		at = now
	}
	m.watchdog[site] = m.eng.At(at, func() { m.leaseExpired(site, exp) })
}

// renewSite returns the keepalive callback for one site: extend every
// lease backing the PoP to the target, then push the watchdog out.
func (m *Manager) renewSite(site string) resilience.RenewFunc {
	return func(target time.Duration, done func(error)) {
		leases := m.leases[site]
		if len(leases) == 0 {
			done(nil)
			return
		}
		for _, l := range leases {
			if err := m.dep.RenewLease(m.sm, l, target); err != nil {
				done(err)
				return
			}
		}
		m.leaseExp[site] = target
		m.armWatchdog(site, target)
		done(nil)
	}
}

// leaseExpired is the watchdog: a PoP whose lease lapsed loses its
// resources, so the VM is stopped and the site vacated. The exp guard
// makes stale events (a renewal landed after this fired was scheduled)
// no-ops.
func (m *Manager) leaseExpired(site string, exp time.Duration) {
	if cur, ok := m.leaseExp[site]; !ok || cur != exp {
		return
	}
	delete(m.watchdog, site)
	if _, ok := m.active[site]; !ok {
		return
	}
	var span obs.SpanContext
	if m.tr != nil {
		span = m.tr.Begin("svc.lease_lapse",
			obs.String("service", m.cfg.Name), obs.String("site", site))
	}
	restore := m.tr.EnterScope(span)
	defer restore()
	m.LeaseLapsedN++
	m.vacate(site)
	m.accountStrength()
	span.End()
}

// vacate tears down one site's PoP and all its lease bookkeeping: the
// VM stops, the leases go back to the authority (releasing an already
// lapsed lease just closes its audit record), the watchdog and
// keepalive stand down.
func (m *Manager) vacate(site string) {
	if slice, ok := m.active[site]; ok {
		slice.StopAll()
		delete(m.active, site)
		i, _ := slices.BinarySearch(m.order, site)
		m.order = slices.Delete(m.order, i, i+1)
	}
	if ev, ok := m.watchdog[site]; ok {
		m.eng.Cancel(ev)
		delete(m.watchdog, site)
	}
	m.dep.ReleaseLeases(m.leases[site])
	delete(m.leases, site)
	delete(m.leaseExp, site)
	if m.kit != nil {
		m.kit.Renewer.Untrack(site)
	}
}

// Target returns the configured desired strength.
func (m *Manager) Target() int { return m.cfg.Target }

// Running returns the current number of live points of presence.
func (m *Manager) Running() int {
	n := 0
	for _, s := range m.active {
		n += s.Running()
	}
	return n
}

// ActiveSites returns a copy of the sites currently hosting the service,
// sorted.
func (m *Manager) ActiveSites() []string { return slices.Clone(m.order) }

// Hosts reports whether the site is currently hosting the service.
func (m *Manager) Hosts(site string) bool { _, ok := m.active[site]; return ok }

// EachActiveSite calls fn with each site currently hosting the service,
// in sorted order, without copying the list. fn must not deploy or vacate.
func (m *Manager) EachActiveSite(fn func(site string)) {
	for _, site := range m.order {
		fn(site)
	}
}

// LeaseHorizon reports when the site's earliest lease expires (ok=false
// when the site holds no leases). Invariant audits use this: an active
// PoP at a healthy site must never be past its horizon.
func (m *Manager) LeaseHorizon(site string) (time.Duration, bool) {
	exp, ok := m.leaseExp[site]
	return exp, ok
}

// DegradedSoFar returns degraded time including any open below-target
// interval, so availability can be computed mid-run without closing the
// books.
func (m *Manager) DegradedSoFar() time.Duration {
	if m.degraded {
		return m.DegradedTime + (m.eng.Now() - m.degradedSince)
	}
	return m.DegradedTime
}

// accountStrength tracks degraded time: below-target intervals are
// integrated into DegradedTime.
func (m *Manager) accountStrength() {
	now := m.eng.Now()
	below := m.Running() < m.cfg.Target
	switch {
	case below && !m.degraded:
		m.degraded = true
		m.degradedSince = now
	case !below && m.degraded:
		m.degraded = false
		m.DegradedTime += now - m.degradedSince
	}
}

// closeAccounting flushes an open degraded interval (shutdown path).
func (m *Manager) closeAccounting() {
	if m.degraded {
		m.DegradedTime += m.eng.Now() - m.degradedSince
		m.degraded = false
	}
}

// breakerReady reports whether the site's breaker admits new work (true
// when no kit is installed).
func (m *Manager) breakerReady(site string) bool {
	if m.kit == nil {
		return true
	}
	return m.kit.Breakers.For(site).Ready()
}

// spare reports whether cand can take a replacement slice: not active,
// not marked down, admitted by its breaker, and stocked for one slice.
// The order is part of the contract: breakerReady creates a breaker on
// first use, so only candidates past the first two checks get one.
func (m *Manager) spare(cand string) bool {
	if _, isActive := m.active[cand]; isActive {
		return false
	}
	if _, isDown := m.downAt[cand]; isDown {
		return false
	}
	return m.breakerReady(cand) && m.dep.Inventory(cand) >= m.cfg.CPUPerSite
}

// SiteFailed informs the manager that a site died: its VM is torn down
// and the first spare candidate that deploys takes its place. Returns the
// replacement site, or an error when the service must run degraded.
func (m *Manager) SiteFailed(site string) (string, error) {
	var span obs.SpanContext
	if m.tr != nil {
		span = m.tr.Begin("svc.site_failed",
			obs.String("service", m.cfg.Name), obs.String("site", site))
	}
	restore := m.tr.EnterScope(span)
	defer restore()
	m.siteFailN++
	m.downAt[site] = m.eng.Now()
	if _, ok := m.active[site]; ok {
		m.vacate(site)
	}
	m.accountStrength()
	for _, cand := range m.cfg.Candidates {
		// site itself is marked down above, so spare skips it.
		if m.spare(cand) && m.tryDeploy(cand) {
			m.RedeployN++
			m.accountStrength()
			span.End(obs.String("replacement", cand))
			return cand, nil
		}
	}
	span.End(obs.Err(ErrNoSpareSites))
	return "", ErrNoSpareSites
}

// SiteRecovered clears a site's failure mark so it can be reused.
func (m *Manager) SiteRecovered(site string) {
	delete(m.downAt, site)
}

// Reconcile is the repair pass fault recovery hooks call after sites come
// back: dead slices are pruned and spare candidates are deployed until the
// service is back at Target strength. It returns the number of new
// deployments.
func (m *Manager) Reconcile() int {
	if !m.started {
		return 0
	}
	var span obs.SpanContext
	if m.tr != nil {
		span = m.tr.Begin("svc.reconcile", obs.String("service", m.cfg.Name))
	}
	restore := m.tr.EnterScope(span)
	defer restore()
	// vacate edits m.order, so each step resumes past the site it left.
	for i := 0; i < len(m.order); i++ {
		if site := m.order[i]; m.active[site].Running() == 0 {
			m.vacate(site)
			i, _ = slices.BinarySearch(m.order, site)
			i--
		}
	}
	n := 0
	for _, cand := range m.cfg.Candidates {
		if m.Running() >= m.cfg.Target {
			break
		}
		if m.spare(cand) && m.tryDeploy(cand) {
			m.RedeployN++
			n++
		}
	}
	m.accountStrength()
	span.End(obs.Int("deployed", n))
	return n
}

// Stop tears the whole service down, closing the degraded-time books.
func (m *Manager) Stop() {
	for len(m.order) > 0 {
		m.vacate(m.order[0])
	}
	m.closeAccounting()
}
