// Package broker implements the VO-level schedulers the paper contrasts in
// §4.2.2. On the Globus side, job flow is *push*: "brokers pass job
// requests from users or applications to resources", carrying the user's
// delegated identity (Matchmaker, modelled on Condor-G matchmaking over
// MDS), with DUROC-style all-or-nothing co-allocation (CoAllocator). On
// the PlanetLab side, resource flow is *pull*: "node managers and brokers
// push capabilities (resource reservations) from resources to the users
// that originate requests" (Deployer, built on SHARP tickets redeemed
// into leases and bound to VMs).
//
// Both brokers expose counters the E5 experiment compares: control-plane
// hops per placement, allocation success under site-policy churn, and
// compromise blast radius (what an attacker gains by owning the broker).
package broker

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gram"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simnet"
)

// Broker errors.
var (
	ErrNoCandidates = errors.New("broker: no matching resources")
	ErrAllRefused   = errors.New("broker: every candidate refused the job")
	ErrPartialFail  = errors.New("broker: co-allocation failed; parts cancelled")
)

// Matchmaker is an identity-delegation meta-scheduler: it holds users'
// proxy credentials, discovers resources through an MDS index, and
// submits jobs to site gatekeepers on the users' behalf.
type Matchmaker struct {
	Net   *simnet.Network
	Host  string // the broker's own host
	Index string // GIIS host to query

	// Timeout bounds each RPC leg.
	Timeout time.Duration

	// Resilience, when set, routes submissions through deterministic
	// backoff-and-retry for transport faults (refusals stay final) and
	// gates candidates on its breakers: a gatekeeper whose breaker is not
	// ready is skipped without an attempt. SiteOf maps a gatekeeper host
	// to its breaker key (nil keys by host name).
	Resilience *resilience.Kit
	SiteOf     func(gatekeeper string) string

	// heldProxies are the delegated credentials the broker currently
	// stores — the compromise blast radius of this design.
	heldProxies []*identity.Credential

	// Hops counts control messages initiated per placement attempt;
	// PlacedN / FailedN count outcomes.
	Hops, PlacedN, FailedN int
}

// HeldProxies returns the delegated credentials the broker is storing —
// each one lets a thief act as that user until its NotAfter.
func (m *Matchmaker) HeldProxies() []*identity.Credential { return m.heldProxies }

// breakerFor maps a gatekeeper host to its site breaker (nil when no kit
// is installed).
func (m *Matchmaker) breakerFor(gk string) *resilience.Breaker {
	if m.Resilience == nil {
		return nil
	}
	key := gk
	if m.SiteOf != nil {
		key = m.SiteOf(gk)
	}
	return m.Resilience.Breakers.For(key)
}

// Placement reports where a job landed.
type Placement struct {
	JobID      string
	Gatekeeper string
}

// SubmitJob places one job: query the index for records matching the
// job's requirement filters, then try each candidate gatekeeper in rank
// order with the user's delegated credential until one accepts.
//
// Resource records are expected to carry at least "gatekeeper" (host
// name); filters beyond that come from the caller.
func (m *Matchmaker) SubmitJob(proxy *identity.Credential, spec gram.JobSpec, filters []mds.Filter, done func(Placement, error)) {
	m.heldProxies = append(m.heldProxies, proxy)
	m.Hops++
	mds.QueryIndex(m.Net, m.Host, m.Index, mds.Query{Filters: filters}, m.Timeout,
		func(reply mds.QueryReply, err error) {
			if err != nil {
				m.FailedN++
				done(Placement{}, err)
				return
			}
			var gks []string
			for _, rec := range reply.Records {
				if gk, ok := rec.Attrs["gatekeeper"]; ok {
					gks = append(gks, gk)
				}
			}
			if len(gks) == 0 {
				m.FailedN++
				done(Placement{}, ErrNoCandidates)
				return
			}
			m.tryNext(proxy, spec, gks, done)
		})
}

func (m *Matchmaker) tryNext(proxy *identity.Credential, spec gram.JobSpec, gks []string, done func(Placement, error)) {
	if len(gks) == 0 {
		m.FailedN++
		done(Placement{}, ErrAllRefused)
		return
	}
	gk := gks[0]
	br := m.breakerFor(gk)
	if !br.Ready() {
		// The breaker has written this site off; spend the attempt on the
		// next candidate instead of a known-dead gatekeeper.
		m.tryNext(proxy, spec, gks[1:], done)
		return
	}
	var retry *resilience.Executor
	if m.Resilience != nil {
		retry = m.Resilience.Retry
	}
	m.Hops++
	gram.SubmitWithRetry(retry, br, m.Net, m.Host, gk,
		gram.SubmitRequest{Cred: proxy, Spec: spec}, m.Timeout,
		func(reply gram.SubmitReply, err error) {
			if err != nil {
				// Site refused (policy, auth, capacity) or stayed dark
				// through the retry budget: try the next — exactly why
				// identity delegation needs per-site retries.
				m.tryNext(proxy, spec, gks[1:], done)
				return
			}
			m.PlacedN++
			done(Placement{JobID: reply.JobID, Gatekeeper: gk}, nil)
		})
}

// CoAllocator is the DUROC-style all-or-nothing multi-site allocator: a
// multi-request RSL names a gatekeeper per part via the classic
// resourceManagerContact attribute; all parts must be accepted or every
// accepted part is cancelled.
type CoAllocator struct {
	Net     *simnet.Network
	Host    string
	Timeout time.Duration

	// Retry, when set, routes the abort-path cancels through
	// deterministic retry so a single dropped message no longer orphans a
	// job at a live site.
	Retry *resilience.Executor

	// CoAllocN / AbortN count outcomes; cancelN counts abort-path
	// cancels sent, and CancelLostN those that never reached the site
	// (orphaned remote jobs).
	CoAllocN, AbortN, CancelLostN int
	cancelN                       int
	// Hops counts control messages initiated.
	Hops int

	tr *obs.Tracer
}

// SetTracer installs an observability tracer, which reads the cancel
// counts as broker.coalloc.* counters. A nil tracer (the default) keeps
// every instrumentation point inert.
func (c *CoAllocator) SetTracer(tr *obs.Tracer) {
	c.tr = tr
	tr.CounterFunc("broker.coalloc.cancels", func() uint64 { return uint64(c.cancelN) })
	tr.CounterFunc("broker.coalloc.cancels_lost", func() uint64 { return uint64(c.CancelLostN) })
}

// Part describes one component of a co-allocation.
type Part struct {
	Gatekeeper string
	Spec       gram.JobSpec
}

// CoAllocate submits all parts with the user's credential; if any part is
// refused, the accepted parts are cancelled and ErrPartialFail reported.
func (c *CoAllocator) CoAllocate(proxy *identity.Credential, parts []Part, done func([]Placement, error)) {
	if len(parts) == 0 {
		done(nil, fmt.Errorf("broker: empty co-allocation"))
		return
	}
	placements := make([]Placement, len(parts))
	var pending = len(parts)
	var failed error
	finishOne := func() {
		pending--
		if pending > 0 {
			return
		}
		if failed == nil {
			c.CoAllocN++
			done(placements, nil)
			return
		}
		// Cancel the parts that did start (the DUROC barrier abort).
		c.AbortN++
		for _, p := range placements {
			if p.JobID != "" {
				c.cancelPart(p)
			}
		}
		done(nil, fmt.Errorf("%w: %v", ErrPartialFail, failed))
	}
	for i, part := range parts {
		i, part := i, part
		c.Hops++
		gram.Submit(c.Net, c.Host, part.Gatekeeper, gram.SubmitRequest{Cred: proxy, Spec: part.Spec}, c.Timeout,
			func(reply gram.SubmitReply, err error) {
				if err != nil {
					if failed == nil {
						failed = err
					}
				} else {
					placements[i] = Placement{JobID: reply.JobID, Gatekeeper: part.Gatekeeper}
				}
				finishOne()
			})
	}
}

// cancelPart aborts one accepted part. The cancel's outcome is tracked:
// a cancel that never lands (after retries, when an executor is wired)
// leaves the remote job running and charging the user, so it is counted
// rather than discarded.
func (c *CoAllocator) cancelPart(p Placement) {
	c.Hops++
	c.cancelN++
	gram.CancelWithRetry(c.Retry, nil, c.Net, c.Host, p.Gatekeeper, p.JobID, c.Timeout,
		func(_ gram.StatusReply, err error) {
			if err != nil {
				c.CancelLostN++
			}
		})
}
