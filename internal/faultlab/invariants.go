package faultlab

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/mds"
	"repro/internal/servicemgr"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/trust"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Invariant names the broken property ("lease-term", "port-excl", ...).
	Invariant string
	Detail    string
	// at is the virtual time a chaos run first recorded the breach (see
	// Bisect). It is no part of String, so dedup keys and reports do not
	// see it.
	at time.Duration
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// CheckLeaseTerms asserts SHARP's containment property on a site's live
// lease records: a live lease's hard term must sit inside the redeemed
// ticket's leaf term, which in turn cannot outlive the root ticket the
// authority originally signed. A lease outliving its ticket would be a
// resource held on an expired promise. Released leases hold nothing and
// have no record, so the audit sees live leases only.
func CheckLeaseTerms(site string, a *sharp.Authority) []Violation {
	var out []Violation
	a.EachLeaseRecord(func(r sharp.LeaseRecord) { out = checkLeaseTerm(out, site, r) })
	return out
}

// checkLeaseTerm appends one record's containment breaches to out.
func checkLeaseTerm(out []Violation, site string, r sharp.LeaseRecord) []Violation {
	l := r.Lease
	if l.NotBefore < r.LeafNotBefore || l.NotAfter > r.LeafNotAfter {
		out = append(out, Violation{
			Invariant: "lease-term",
			Detail: fmt.Sprintf("%s: lease %s [%v,%v) outside ticket term [%v,%v)",
				site, l.ID, l.NotBefore, l.NotAfter, r.LeafNotBefore, r.LeafNotAfter),
		})
	}
	if l.NotAfter > r.RootNotAfter {
		out = append(out, Violation{
			Invariant: "lease-term",
			Detail: fmt.Sprintf("%s: lease %s ends %v after root ticket expiry %v",
				site, l.ID, l.NotAfter, r.RootNotAfter),
		})
	}
	return out
}

// CheckPortExclusivity cross-examines a node's kernel port table against
// every context's own port list: each bound port must have exactly one
// owner, and both views must agree. This is the silk/capability invariant
// behind "resources that cannot be shared (e.g., network ports)".
func CheckPortExclusivity(node *silk.Node) []Violation {
	// The clean state, checked without building anything: each claimed
	// port is listed once by its claimant and bound to it.
	clean := true
	node.EachContext(func(c *silk.Context) {
		c.EachPort(func(p int) {
			n := 0
			c.EachPort(func(q int) {
				if q == p {
					n++
				}
			})
			clean = clean && n == 1 && node.PortOwner(p) == c
		})
	})
	if clean {
		return nil
	}
	claims := make(map[int][]string)
	node.EachContext(func(c *silk.Context) {
		c.EachPort(func(p int) { claims[p] = append(claims[p], c.Name) })
	})
	ports := make([]int, 0, len(claims))
	for p := range claims {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	var out []Violation
	for _, p := range ports {
		owners := claims[p]
		if len(owners) > 1 {
			out = append(out, Violation{
				Invariant: "port-excl",
				Detail:    fmt.Sprintf("%s: port %d claimed by %v", node.Name, p, owners),
			})
			continue
		}
		bound := ""
		if c := node.PortOwner(p); c != nil {
			bound = c.Name
		}
		if bound != owners[0] {
			out = append(out, Violation{
				Invariant: "port-excl",
				Detail: fmt.Sprintf("%s: port %d bound to %q but claimed by %q",
					node.Name, p, bound, owners[0]),
			})
		}
	}
	return out
}

// CheckNoDoneDuringOutage asserts that no GRAM job reported success while
// its site was down: a Done transition timestamped strictly inside an
// outage interval means a crashed node claimed to finish work.
func CheckNoDoneDuringOutage(site string, g *gram.Gatekeeper, outages []core.DownInterval) []Violation {
	if len(outages) == 0 {
		return nil
	}
	var out []Violation
	g.EachJob(func(j *gram.Job) {
		for _, tr := range j.History {
			if tr.To != gram.Done {
				continue
			}
			for _, iv := range outages {
				if tr.At > iv.From && (iv.Open || tr.At < iv.To) {
					out = append(out, Violation{
						Invariant: "done-on-dead-node",
						Detail: fmt.Sprintf("%s: job %s done at %v inside outage [%v,%v)",
							site, j.ID, tr.At, iv.From, iv.To),
					})
				}
			}
		}
	})
	return out
}

// CheckServiceStrength asserts a managed service converged back to its
// target points of presence — or to the feasible maximum when fewer sites
// than Target survived.
func CheckServiceStrength(m *servicemgr.Manager, feasible int) []Violation {
	want := m.Target()
	if feasible < want {
		want = feasible
	}
	if got := m.Running(); got < want {
		return []Violation{{
			Invariant: "service-strength",
			Detail: fmt.Sprintf("running %d < required %d (target %d, feasible %d)",
				got, want, m.Target(), feasible),
		}}
	}
	return nil
}

// CheckLeaseContinuity asserts the keepalive promise: a running point of
// presence at a healthy (not crashed) site must still be inside its
// lease horizon. A PoP strictly past its horizon means lease
// enforcement and renewal both failed — the VM is running on resources
// it no longer holds.
func CheckLeaseContinuity(f *core.Federation, m *servicemgr.Manager) []Violation {
	now := f.Eng.Now()
	var out []Violation
	m.EachActiveSite(func(site string) {
		if f.SiteDown(site) {
			return
		}
		exp, ok := m.LeaseHorizon(site)
		if !ok {
			out = append(out, Violation{
				Invariant: "lease-continuity",
				Detail:    fmt.Sprintf("%s: active PoP holds no recorded lease", site),
			})
			return
		}
		if exp < now {
			out = append(out, Violation{
				Invariant: "lease-continuity",
				Detail:    fmt.Sprintf("%s: active PoP past lease horizon %v at %v", site, exp, now),
			})
		}
	})
	return out
}

// CheckMDSFreshness asserts the soft-state promise: an index must not
// serve a record whose source host has been dead longer than the maximum
// TTL — by then every registration it could have pushed has expired
// (index: a federation's Index or Comon, a root-less mds.RegionIndex).
func CheckMDSFreshness(index *mds.GIIS, now time.Duration,
	downSince func(host string) (time.Duration, bool), maxTTL time.Duration) []Violation {
	var out []Violation
	index.EachLive(func(name, source string) {
		since, down := downSince(source)
		if !down {
			return
		}
		if dead := now - since; dead > maxTTL {
			out = append(out, Violation{
				Invariant: "mds-freshness",
				Detail: fmt.Sprintf("record %s served from %s dead for %v (max TTL %v)",
					name, source, dead, maxTTL),
			})
		}
	})
	return out
}

// CheckOpts parameterizes a federation-wide audit.
type CheckOpts struct {
	// Managers, when non-empty, have their strength checked (convergence
	// audits pass them only after the heal + converge phase).
	Managers []*servicemgr.Manager
	// LeaseManagers, when non-empty, have lease continuity checked: this
	// is structural (safe mid-run), unlike the strength check.
	LeaseManagers []*servicemgr.Manager
	// FeasibleSites is the number of candidate sites a manager could
	// possibly occupy right now.
	FeasibleSites int
	// TTLBound is the MDS freshness bound (0 skips the MDS check — use
	// during mid-run audits only when refresh config is known).
	TTLBound time.Duration
	// Scoreboards, when non-empty, have their score bounds checked:
	// every reputation score must stay a number in [0, 1].
	Scoreboards []*trust.Scoreboard
}

// CheckFederation runs every applicable invariant over the federation's
// joined sites plus its VO-level indexes, returning all violations found.
func CheckFederation(f *core.Federation, opts CheckOpts) []Violation {
	var out []Violation
	f.EachJoinedSite(func(s *core.Site) {
		if s.Runtime != nil {
			out = append(out, CheckLeaseTerms(s.Spec.Name, s.Runtime.Authority.Ledger())...)
			out = append(out, CheckPortExclusivity(s.Runtime.Node)...)
			out = append(out, CheckBankConservation(s.Spec.Name, s.Runtime.Bank)...)
		}
		if s.Gatekeeper != nil {
			out = append(out, CheckNoDoneDuringOutage(s.Spec.Name, s.Gatekeeper, f.DownLog(s.Spec.Name))...)
		}
	})
	if opts.TTLBound > 0 {
		now := f.Eng.Now()
		out = append(out, CheckMDSFreshness(f.Index, now, f.HostDownSince, opts.TTLBound)...)
		out = append(out, CheckMDSFreshness(f.Comon, now, f.HostDownSince, opts.TTLBound)...)
	}
	for _, m := range opts.LeaseManagers {
		out = append(out, CheckLeaseContinuity(f, m)...)
	}
	for _, m := range opts.Managers {
		out = append(out, CheckServiceStrength(m, opts.FeasibleSites)...)
	}
	for _, sb := range opts.Scoreboards {
		out = append(out, CheckScoreBounds(sb)...)
	}
	return out
}

// CheckBankConservation asserts the collateral ledger's conservation
// law at one site: lifetime deposits must equal held plus slashed, per
// broker and in aggregate. A nil bank (byzantine layer off) passes.
func CheckBankConservation(site string, b *trust.Bank) []Violation {
	if b == nil {
		return nil
	}
	if err := b.CheckConservation(); err != nil {
		return []Violation{{
			Invariant: "collateral-conservation",
			Detail:    fmt.Sprintf("%s: %v", site, err),
		}}
	}
	return nil
}

// CheckScoreBounds asserts every reputation score is a number in [0, 1]
// — the EWMA can never leave the unit interval however outcomes arrive.
func CheckScoreBounds(s *trust.Scoreboard) []Violation {
	if err := s.CheckBounds(); err != nil {
		return []Violation{{
			Invariant: "score-bounds",
			Detail:    err.Error(),
		}}
	}
	return nil
}
