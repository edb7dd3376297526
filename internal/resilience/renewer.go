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

// RenewerConfig shapes the keepalive loop.
type RenewerConfig struct {
	// Lead is the fraction of the claim's term before notAfter at which
	// renewal starts (default 0.25: renew at 75% of the term, as SHARP
	// deployments refresh soft claims well before they harden into
	// expiry).
	Lead float64
	// Extend is how much each successful renewal extends notAfter by
	// (default: the claim's own term, keeping a steady cadence).
	Extend time.Duration
	// Policy overrides the executor's default policy for renewal
	// attempts; its Budget is always clamped to the claim's remaining
	// lifetime (retrying past expiry is pointless).
	Policy *Policy
}

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
	cfg RenewerConfig

	items map[string]*renewal

	// RenewedN / GiveupsN count renewal cycles that succeeded / were
	// abandoned (budget or attempts exhausted before expiry).
	RenewedN, GiveupsN int

	tr *obs.Tracer
}

// NewRenewer builds a renewer that retries through ex. The tracer may be
// nil.
func NewRenewer(eng *sim.Engine, ex *Executor, cfg RenewerConfig, tr *obs.Tracer) *Renewer {
	if eng == nil {
		panic("resilience: nil engine")
	}
	if ex == nil {
		panic("resilience: nil executor")
	}
	if cfg.Lead <= 0 || cfg.Lead >= 1 {
		cfg.Lead = 0.25
	}
	r := &Renewer{
		eng:   eng,
		ex:    ex,
		cfg:   cfg,
		items: make(map[string]*renewal),
		tr:    tr,
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

// Tracked reports whether a claim is under keepalive.
func (r *Renewer) Tracked(id string) bool {
	_, ok := r.items[id]
	return ok
}

// arm schedules the next renewal cycle at notAfter − Lead×term (now, if
// that point has already passed).
func (r *Renewer) arm(it *renewal) {
	at := it.notAfter - time.Duration(r.cfg.Lead*float64(it.term))
	if now := r.eng.Now(); at < now {
		at = now
	}
	gen := it.gen
	it.ev = r.eng.At(at, func() { r.cycle(it, gen) })
}

// cycle runs one renewal: retry through the executor with the remaining
// lifetime as the budget. Success re-arms; failure leaves the claim to
// its owner's expiry enforcement.
func (r *Renewer) cycle(it *renewal, gen int) {
	if it.gen != gen {
		return
	}
	it.ev = sim.Event{}
	target := it.notAfter + r.cfg.Extend
	if r.cfg.Extend <= 0 {
		target = it.notAfter + it.term
	}
	pol := r.ex.Policy()
	if r.cfg.Policy != nil {
		pol = *r.cfg.Policy
	}
	pol.MaxAttempts = 0 // keep trying until the lifetime budget runs out
	if remain := it.notAfter - r.eng.Now(); pol.Budget <= 0 || pol.Budget > remain {
		pol.Budget = remain
	}
	r.ex.DoWithPolicy("renew:"+it.id, pol, it.br,
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
