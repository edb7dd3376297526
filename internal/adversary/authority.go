package adversary

import (
	"fmt"
	"time"

	"repro/internal/sharp"
	"repro/internal/sim"
)

// RenegeAuthority wraps a real site authority and reneges on every
// Every-th otherwise-valid redeem: the ticket is verified, marked
// spent, the capacity is quietly kept, and the buyer is told there was
// a conflict. Structurally indistinguishable from an honestly
// oversubscribed site — which is the attack's cover, and why redeem
// failures must feed availability accounting and breaker state rather
// than being trusted as honest signals.
type RenegeAuthority struct {
	*sharp.Authority
	// Every is the renege period (0 behaves honestly).
	Every int
	// RenegedN counts redeems the site reneged on.
	RenegedN int

	n int
}

// NewRenegeAuthority wraps an authority.
func NewRenegeAuthority(a *sharp.Authority, every int) *RenegeAuthority {
	return &RenegeAuthority{Authority: a, Every: every}
}

// Redeem lets the real authority do the work, then reneges
// periodically: the granted lease is silently released (the site keeps
// its resources free for "better" customers) and a fake conflict goes
// back. The ticket stays burned in the replay cache — the buyer cannot
// even retry it, which is what makes reneging strictly worse than an
// honest conflict.
func (a *RenegeAuthority) Redeem(t *sharp.Ticket) (*sharp.Lease, error) {
	lease, err := a.Authority.Redeem(t)
	if err != nil {
		return nil, err
	}
	a.n++
	if a.Every > 0 && a.n%a.Every == 0 {
		a.Authority.ReleaseLease(lease)
		a.RenegedN++
		return nil, fmt.Errorf("%w: site reneged on redeem", sharp.ErrConflict)
	}
	return lease, nil
}

// ShrinkAuthority wraps a real site authority and silently shrinks
// every lease it grants: after Frac of the lease term, the backing
// capability is released without telling the holder. The service's VM
// keeps "running" on resources the site has re-taken; the holder finds
// out when its renewal fails with ErrUnknownLease (or an audit catches
// the released record).
type ShrinkAuthority struct {
	*sharp.Authority
	// Frac in (0, 1] is the fraction of the lease term the site honors
	// before quietly reclaiming it (0 behaves honestly).
	Frac float64
	// ShrunkN counts leases reclaimed early.
	ShrunkN int

	eng *sim.Engine
}

// NewShrinkAuthority wraps an authority on the given engine.
func NewShrinkAuthority(eng *sim.Engine, a *sharp.Authority, frac float64) *ShrinkAuthority {
	return &ShrinkAuthority{Authority: a, Frac: frac, eng: eng}
}

// Redeem grants the lease honestly, then schedules its silent early
// reclaim.
func (a *ShrinkAuthority) Redeem(t *sharp.Ticket) (*sharp.Lease, error) {
	lease, err := a.Authority.Redeem(t)
	if err != nil || a.Frac <= 0 {
		return lease, err
	}
	term := lease.NotAfter - a.eng.Now()
	delay := time.Duration(float64(term) * a.Frac)
	if delay < 0 {
		delay = 0
	}
	a.eng.Schedule(delay, func() { a.shrink(lease) })
	return lease, nil
}

// shrink reclaims a lease early unless the holder already released it.
func (a *ShrinkAuthority) shrink(l *sharp.Lease) {
	for _, rec := range a.LeaseRecords() {
		if rec.Lease.ID == l.ID {
			a.Authority.ReleaseLease(l)
			a.ShrunkN++
			return
		}
	}
}
