package resilience

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// RenewFunc extends a tracked claim to the target notAfter and settles
// exactly once through done. It is invoked once per attempt, so it must
// be safe to call again after a failure.
type RenewFunc func(target time.Duration, done func(error))

type renewal struct {
	id       string
	notAfter time.Duration
	term     time.Duration
	br       *Breaker
	renew    RenewFunc
	ev       sim.Event
	gen      int // invalidates in-flight cycles after Untrack/re-Track
}

// Renewer drives keepalive renewal for time-limited claims (SHARP
// leases here, but anything with a notAfter works). It only renews: the
// claim's owner keeps enforcement (tearing down what actually lapsed)
// and calls Untrack on any teardown path.
type Renewer struct {
	eng *sim.Engine
	ex  *Executor

	items map[string]*renewal

	// RenewedN / GiveupsN count renewal cycles that succeeded / were
	// abandoned (the claim's lifetime ran out before a renewal landed).
	RenewedN, GiveupsN int
}

// newRenewer builds a renewer that retries through ex. The tracer may be
// nil.
func newRenewer(eng *sim.Engine, ex *Executor, tr *obs.Tracer) *Renewer {
	r := &Renewer{
		eng:   eng,
		ex:    ex,
		items: make(map[string]*renewal),
	}
	if tr != nil { // an untraced run allocates no readers
		tr.CounterFunc("resilience.renewals", func() uint64 { return uint64(r.RenewedN) })
		tr.CounterFunc("resilience.renewals.abandoned", func() uint64 { return uint64(r.GiveupsN) })
	}
	return r
}

// Track starts keepalive for a claim expiring at notAfter with the given
// full term, gated by the target's breaker (nil = ungated). Re-tracking
// an id replaces the previous schedule.
func (r *Renewer) Track(id string, notAfter, term time.Duration, br *Breaker, renew RenewFunc) {
	r.Untrack(id)
	it := &renewal{id: id, notAfter: notAfter, term: term, br: br, renew: renew}
	r.items[id] = it
	r.arm(it)
}

// Untrack stops keepalive for a claim (owner teardown, lapse, failover).
// Unknown ids are a no-op so every teardown path may call it.
func (r *Renewer) Untrack(id string) {
	it, ok := r.items[id]
	if !ok {
		return
	}
	it.gen++
	r.eng.Cancel(it.ev)
	it.ev = sim.Event{}
	delete(r.items, id)
}

// arm schedules the next renewal cycle at notAfter − RenewLead×term
// (now, if that point has already passed).
func (r *Renewer) arm(it *renewal) {
	at := it.notAfter - time.Duration(RenewLead*float64(it.term))
	if now := r.eng.Now(); at < now {
		at = now
	}
	gen := it.gen
	it.ev = r.eng.At(at, func() { r.cycle(it, gen) })
}

// cycle runs one renewal to one term past notAfter: retry through the
// executor until success or the claim's remaining lifetime runs out.
// Success re-arms; failure leaves the claim to its owner's expiry
// enforcement.
func (r *Renewer) cycle(it *renewal, gen int) {
	if it.gen != gen {
		return
	}
	it.ev = sim.Event{}
	target := it.notAfter + it.term
	r.ex.doUntil("renew:"+it.id, it.br, it.notAfter-r.eng.Now(),
		func(_ int, done func(error)) {
			if it.gen != gen {
				done(nil) // owner untracked mid-flight; stop the loop
				return
			}
			it.renew(target, done)
		},
		func(err error) {
			if it.gen != gen {
				return // owner untracked mid-flight; outcome is moot
			}
			if err != nil {
				r.GiveupsN++
				return
			}
			r.RenewedN++
			it.notAfter = target
			r.arm(it)
		})
}
