package broker

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/trust"
	"repro/internal/vm"
)

// Deployer errors.
var (
	// ErrNoTickets reports that the broker could not supply resources for
	// a requested site.
	ErrNoTickets = errors.New("broker: no tickets available for site")
	// ErrSiteUnreachable reports a deploy/renew refused because the
	// target site is currently down or partitioned (per the SiteDown
	// hook). It is the transient failure that charges the site's breaker.
	ErrSiteUnreachable = errors.New("broker: site unreachable")
	// ErrAllSitesFailed reports a deployment where not a single site
	// succeeded.
	ErrAllSitesFailed = errors.New("broker: no site deployed")
)

// SiteAuthority is the authority surface everything holding a
// SiteRuntime relies on. *sharp.Authority is the honest implementation;
// internal/adversary wraps it with byzantine behaviours (reneging on
// redeem, silently shrinking leases) that still satisfy this interface,
// so the deploy/renew/audit machinery cannot tell an adversarial site
// apart structurally — only behaviourally, which is the point.
type SiteAuthority interface {
	Key() ed25519.PublicKey
	IssueTicket(holderName string, holderKey ed25519.PublicKey, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) (*sharp.Ticket, error)
	Redeem(t *sharp.Ticket) (*sharp.Lease, error)
	Renew(leaseID string, tickets ...*sharp.Ticket) (*sharp.Lease, error)
	ReleaseLease(l *sharp.Lease)
	LeaseRecords() []sharp.LeaseRecord
	SetClockSkew(d time.Duration)
	ClockSkew() time.Duration
	SetOversellFactor(f float64)
}

// SiteRuntime bundles one PlanetLab site's local machinery: the SHARP
// authority, its node manager, and the node the VMs land on. (One node
// per site keeps the model at the paper's granularity of "a few nodes
// each".)
type SiteRuntime struct {
	Authority SiteAuthority
	NM        *capability.NodeManager
	Node      *silk.Node
	// Bank, when non-nil, is the site's collateral ledger: brokers must
	// hold unslashed collateral here to be eligible on the exchange, and
	// detected fraud against this site slashes it.
	Bank *trust.Bank
}

// Deployer is the PlanetLab-style usage-delegation broker: it pre-pulls
// tickets from site authorities into a SHARP agent and hands resource
// claims — never identities — to service managers, which redeem and bind
// them locally.
type Deployer struct {
	Agent *sharp.Agent
	Sites map[string]*SiteRuntime

	// SiteDown, when set, reports whether a site is currently crashed or
	// partitioned away; deploy and renew attempts against such a site
	// fail with ErrSiteUnreachable (and charge its breaker) instead of
	// silently succeeding against the in-process authority. core wires
	// this to the federation's fault surface.
	SiteDown func(site string) bool
	// Breakers, when set, gates per-site attempts: a site whose breaker
	// is open is skipped without an attempt. All layers of one federation
	// share the set, so they agree on a site's health.
	Breakers *resilience.BreakerSet
	// Exchange, when non-nil, supplies the deploy path's seller list: a
	// score-weighted ranking of the registered brokers (with collateral
	// gating and fraud slashing) in place of the house agent alone.
	// Renewals always stay on the house agent: a lease is renewed by
	// whoever deployed it.
	Exchange *Exchange

	// Hops counts ticket/lease protocol steps for E5 symmetry with the
	// Matchmaker's counter.
	Hops int
	// DeployedN counts fully successful slice deployments; FailedN counts
	// deployments where at least one site failed (including degraded
	// partial successes). RenewedN / RenewFailN count lease renewals.
	DeployedN, FailedN   int
	RenewedN, RenewFailN int

	// Observability handles (inert when no tracer is installed).
	tr                     *obs.Tracer
	cDeployOK, cDeployFail *obs.Counter
	cStocked               *obs.Counter
	cSkipped               *obs.Counter
	cRenewOK, cRenewFail   *obs.Counter
}

// SetTracer installs an observability tracer. A nil tracer (the default)
// keeps every instrumentation point inert.
func (d *Deployer) SetTracer(tr *obs.Tracer) {
	d.tr = tr
	d.cDeployOK = tr.Counter("broker.deploys.ok")
	d.cDeployFail = tr.Counter("broker.deploys.failed")
	d.cStocked = tr.Counter("broker.tickets.stocked")
	d.cSkipped = tr.Counter("broker.sites.skipped")
	d.cRenewOK = tr.Counter("broker.renews.ok")
	d.cRenewFail = tr.Counter("broker.renews.failed")
}

// reachable gates one attempt against a site: the breaker must admit it
// and the site must not be known-down. A down site charges its breaker.
func (d *Deployer) reachable(site string) error {
	br := d.Breakers.For(site)
	if !br.Allow() {
		d.cSkipped.Inc()
		return fmt.Errorf("%w: %s", resilience.ErrBreakerOpen, site)
	}
	if d.SiteDown != nil && d.SiteDown(site) {
		br.Failure()
		return fmt.Errorf("%w: %s", ErrSiteUnreachable, site)
	}
	br.Success()
	return nil
}

// Probe runs the connectivity gate against a site without deploying
// anything. After an outage heals it is how a repair pass gives a
// tripped breaker its half-open trial — otherwise a site the service no
// longer needs would stay written off forever.
func (d *Deployer) Probe(site string) error {
	if _, ok := d.Sites[site]; !ok {
		return fmt.Errorf("broker: unknown site %q", site)
	}
	return d.reachable(site)
}

// Stock pulls a ticket of `amount` CPU from each named site into the
// agent's inventory (Figure 2 steps 1-2, amortized over many requests).
// Stocking is best-effort per site: an unreachable or refusing site does
// not block the others; the joined per-site errors come back (nil when
// every site stocked).
func (d *Deployer) Stock(amount float64, notBefore, notAfter time.Duration, sites ...string) error {
	var span obs.SpanContext
	if d.tr != nil {
		span = d.tr.Begin("broker.stock",
			obs.Float("amount", amount), obs.Int("sites", len(sites)))
		defer func() { span.End() }()
	}
	restore := d.tr.EnterScope(span)
	defer restore()
	var errs []error
	for _, s := range sites {
		if err := d.stockSite(s, amount, notBefore, notAfter); err != nil {
			span.Annotate(obs.Err(err))
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (d *Deployer) stockSite(site string, amount float64, notBefore, notAfter time.Duration) error {
	rt, ok := d.Sites[site]
	if !ok {
		return fmt.Errorf("broker: unknown site %q", site)
	}
	if err := d.reachable(site); err != nil {
		return err
	}
	d.Hops += 2 // request + grant
	tk, err := rt.Authority.IssueTicket(d.Agent.Name, d.Agent.Key(), capability.CPU, amount, notBefore, notAfter)
	if err != nil {
		return err
	}
	if err := d.Agent.Acquire(tk); err != nil {
		return err
	}
	d.cStocked.Inc()
	return nil
}

// Inventory reports unsold CPU stock for a site.
func (d *Deployer) Inventory(site string) float64 {
	return d.Agent.Inventory(site, capability.CPU)
}

// SiteFailure records why one site of a deployment did not come up.
type SiteFailure struct {
	Site string
	Err  error
}

// DeployResult is the degraded-mode outcome of a partial-success
// deployment: which sites came up, which failed and why, and the leases
// backing each deployed site (the caller renews and releases these).
type DeployResult struct {
	Slice    *vm.Slice
	Deployed []string
	Failed   []SiteFailure
	Leases   map[string][]*sharp.Lease
	// Outcomes records one entry per exchange purchase attempt (empty on
	// the house-agent path): which seller was tried for which site and
	// whether its tickets actually redeemed into leases. Service
	// managers fold these into their broker scoreboards.
	Outcomes []SellerOutcome
}

// SellerOutcome is one market purchase attempt, as seen by the buyer.
type SellerOutcome struct {
	Site   string
	Seller string
	OK     bool
	Err    error
}

// Degraded reports whether any requested site failed.
func (r *DeployResult) Degraded() bool { return len(r.Failed) > 0 }

// Err joins the per-site failures (nil when none).
func (r *DeployResult) Err() error {
	var errs []error
	for _, f := range r.Failed {
		errs = append(errs, fmt.Errorf("%s: %w", f.Site, f.Err))
	}
	return errors.Join(errs...)
}

// DeploySlice builds a service's points of presence: for each requested
// site, buy a ticket from the agent (steps 3-4), redeem it at the site
// authority for a lease (5-6), then create a VM, bind the lease's
// capability, and start it (7). Deployment is partial-success: a failing
// site is rolled back individually (its leases released) and reported in
// the result while the other sites keep their VMs — a degraded CDN beats
// no CDN, and the paper's soft-state story repairs it later. The error
// is non-nil only when not a single site deployed.
func (d *Deployer) DeploySlice(sliceName string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, sites []string) (*DeployResult, error) {
	var span obs.SpanContext
	if d.tr != nil {
		span = d.tr.Begin("broker.deploy",
			obs.String("slice", sliceName), obs.String("sm", sm.Name),
			obs.Float("cpu_per_site", cpuPerSite), obs.Int("sites", len(sites)))
	}
	restore := d.tr.EnterScope(span)
	defer restore()
	res := &DeployResult{
		Slice:  vm.NewSlice(sliceName),
		Leases: make(map[string][]*sharp.Lease),
	}
	for _, site := range sites {
		leases, err := d.deploySite(span, res, sliceName, sm, cpuPerSite, notBefore, notAfter, site)
		if err != nil {
			res.Failed = append(res.Failed, SiteFailure{Site: site, Err: err})
			continue
		}
		res.Deployed = append(res.Deployed, site)
		res.Leases[site] = leases
	}
	if len(res.Deployed) == 0 {
		d.FailedN++
		d.cDeployFail.Inc()
		err := fmt.Errorf("%w: %w", ErrAllSitesFailed, res.Err())
		span.End(obs.Err(err))
		return res, err
	}
	if res.Degraded() {
		d.FailedN++
		d.cDeployFail.Inc()
	} else {
		d.DeployedN++
		d.cDeployOK.Inc()
	}
	span.End(obs.Int("vms", len(res.Deployed)), obs.Int("failed", len(res.Failed)))
	return res, nil
}

// deploySite attempts one site through the one purchase loop: the
// seller list is the house agent alone or, with an Exchange installed,
// its ranking for the site (seller failover, scoring and slashing then
// happen in the loop). A failed attempt rolls back its own leases and VM.
func (d *Deployer) deploySite(parent obs.SpanContext, res *DeployResult, sliceName string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, site string) ([]*sharp.Lease, error) {
	var span obs.SpanContext
	if d.tr != nil {
		span = d.tr.BeginUnder(parent, "broker.deploy.site", obs.String("site", site))
	}
	restore := d.tr.EnterScope(span)
	defer restore()
	fail := func(err error) ([]*sharp.Lease, error) {
		span.End(obs.Err(err))
		return nil, err
	}
	rt, ok := d.Sites[site]
	if !ok {
		return fail(fmt.Errorf("broker: unknown site %q", site))
	}
	if err := d.reachable(site); err != nil {
		return fail(err)
	}
	order := []Seller{d.Agent}
	if d.Exchange != nil {
		order = d.Exchange.rank(site, capability.CPU, cpuPerSite, rt.Bank)
	}
	leases, outcomes, err := d.Exchange.buy(order, site, rt.Bank,
		func(s Seller) ([]*sharp.Ticket, error) {
			d.Hops += 2 // buy request + ticket grant, refused or not
			return s.Sell(sm.Name, sm.Public(), site, capability.CPU, cpuPerSite, notBefore, notAfter)
		},
		func(tickets []*sharp.Ticket) ([]*sharp.Lease, error) {
			leases, err := d.redeemAndBind(res.Slice, sliceName, site, rt, tickets)
			if err != nil && d.Exchange != nil {
				// A market attempt that fails is not yet the site's
				// verdict: the next seller may still convert.
				span.Annotate(obs.Err(err))
			}
			return leases, err
		})
	res.Outcomes = append(res.Outcomes, outcomes...)
	if err != nil {
		return fail(err)
	}
	span.End()
	return leases, nil
}

// DeploySliceAtomic is the all-or-nothing variant co-allocation-style
// callers keep: any site failing tears down the sites that did come up
// (so a partial CDN does not linger) and reports the error.
func (d *Deployer) DeploySliceAtomic(sliceName string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, sites []string) (*vm.Slice, error) {
	res, err := d.DeploySlice(sliceName, sm, cpuPerSite, notBefore, notAfter, sites)
	if err != nil {
		return nil, err
	}
	if res.Degraded() {
		res.Slice.StopAll()
		for _, site := range res.Deployed {
			d.ReleaseLeases(res.Leases[site])
		}
		return nil, res.Err()
	}
	return res.Slice, nil
}

// ReleaseLeases returns leases to their site authorities (teardown and
// rollback paths; unknown sites are skipped — nothing to return to).
func (d *Deployer) ReleaseLeases(leases []*sharp.Lease) {
	for _, l := range leases {
		if rt, ok := d.Sites[l.Site]; ok {
			rt.Authority.ReleaseLease(l)
		}
	}
}

// RenewLease extends one lease to the target notAfter: buy fresh tickets
// from the agent for the covering interval — re-stocking from the
// issuing authority when the agent's inventory ran dry — and present
// them to the authority as a renewal. The breaker and SiteDown gates
// apply: renewing against a dead site fails fast and charges its
// breaker, which is exactly when the renewer's retry loop should back
// off.
func (d *Deployer) RenewLease(sm *identity.Principal, l *sharp.Lease, notAfter time.Duration) error {
	var span obs.SpanContext
	if d.tr != nil {
		span = d.tr.Begin("broker.renew",
			obs.String("site", l.Site), obs.String("lease", l.ID), obs.Dur("not_after", notAfter))
	}
	restore := d.tr.EnterScope(span)
	defer restore()
	fail := func(err error) error {
		d.RenewFailN++
		d.cRenewFail.Inc()
		span.End(obs.Err(err))
		return err
	}
	rt, ok := d.Sites[l.Site]
	if !ok {
		return fail(fmt.Errorf("broker: unknown site %q", l.Site))
	}
	if err := d.reachable(l.Site); err != nil {
		return fail(err)
	}
	nb := l.NotBefore
	if inv := d.Inventory(l.Site); inv < l.Amount {
		// Inventory ran dry: re-acquire a fresh root ticket first.
		d.Hops += 2
		tk, err := rt.Authority.IssueTicket(d.Agent.Name, d.Agent.Key(), capability.CPU, l.Amount-inv, nb, notAfter)
		if err != nil {
			return fail(err)
		}
		if err := d.Agent.Acquire(tk); err != nil {
			return fail(err)
		}
		d.cStocked.Inc()
	}
	d.Hops += 2 // buy request + ticket grant
	tickets, err := d.Agent.Sell(sm.Name, sm.Public(), l.Site, capability.CPU, l.Amount, nb, notAfter)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrNoTickets, err))
	}
	d.Hops += 2 // renew request + grant
	if _, err := rt.Authority.Renew(l.ID, tickets...); err != nil {
		return fail(err)
	}
	d.RenewedN++
	d.cRenewOK.Inc()
	span.End()
	return nil
}

// BlastRadius describes what an attacker gains by compromising a broker —
// the E5 comparison the paper motivates: a matchmaker leaks *identities*
// (usable for anything, anywhere, until proxy expiry), a SHARP agent
// leaks only *resource claims* (bounded amount, bounded interval, bounded
// sites).
type BlastRadius struct {
	// IdentitiesExposed counts user proxies an attacker could replay.
	IdentitiesExposed int
	// ResourceExposed sums the CPU amount of unsold tickets.
	ResourceExposed float64
	// SitesExposed counts sites with exposed stock.
	SitesExposed int
}

// MatchmakerBlastRadius computes the exposure of a compromised
// identity-delegation broker.
func MatchmakerBlastRadius(m *Matchmaker) BlastRadius {
	return BlastRadius{IdentitiesExposed: len(m.HeldProxies())}
}

// DeployerBlastRadius computes the exposure of a compromised
// usage-delegation broker. Sites are visited in sorted order so the
// floating-point exposure total is bit-identical across runs.
func DeployerBlastRadius(d *Deployer) BlastRadius {
	sites := make([]string, 0, len(d.Sites))
	for site := range d.Sites {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	var b BlastRadius
	for _, site := range sites {
		if amt := d.Inventory(site); amt > 0 {
			b.ResourceExposed += amt
			b.SitesExposed++
		}
	}
	return b
}
