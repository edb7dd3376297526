// Package resilience is gridlab's deterministic fault-handling layer:
// the recovery half of the paper's soft-state story. SHARP tickets are
// *soft* claims that must be refreshed into hard leases before they
// lapse, and short lease/proxy lifetimes trade exposure for renewal
// traffic — which only works if something actually renews, retries, and
// stops hammering dead sites. This package supplies those three
// mechanisms:
//
//   - Policy/Executor: capped exponential backoff with jitter drawn from
//     an injected seeded *rand.Rand, scheduled on the sim.Engine clock
//     (never the wall clock), bounded by attempts and an overall
//     virtual-time budget. An attempt that goes over the network is
//     bounded by its own simnet.Call timeout.
//   - Breaker: per-site circuit breakers (closed/open/half-open with a
//     virtual-time cool-down) so callers degrade gracefully instead of
//     hammering partitioned or crashed sites.
//   - Renewer: a keepalive loop that re-redeems leases a configurable
//     fraction of the term before notAfter, retrying through the
//     executor with the remaining lifetime as its budget.
//
// Determinism contract: the package never reads the wall clock, never
// draws from the global rand stream, and schedules everything on the
// engine, so a run with resilience enabled is byte-identical across
// repeats of the same seed. Construct executors via NewExecutor/NewKit —
// the jitterrand analyzer flags composite-literal construction, which
// could smuggle in a jittered backoff with no rand source.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Package errors. Terminal Do outcomes wrap both the classifying
// sentinel and the last attempt's error, so errors.Is works on either.
var (
	// ErrBreakerOpen reports an attempt refused because the target's
	// breaker was open. It is transient: the breaker half-opens after its
	// cool-down, so policies normally retry it.
	ErrBreakerOpen = errors.New("resilience: breaker open")
	// ErrRetriesExhausted reports MaxAttempts failures.
	ErrRetriesExhausted = errors.New("resilience: attempts exhausted")
	// ErrBudgetExhausted reports that the next retry would start past the
	// policy's overall virtual-time budget.
	ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")
)

// IsBreakerOpen reports whether err was caused by an open breaker
// refusing the attempt (a connectivity verdict, not an answer from the
// target — callers treating refusals as final should still retry these).
func IsBreakerOpen(err error) bool { return errors.Is(err, ErrBreakerOpen) }

// Policy shapes one retry loop: capped exponential backoff plus uniform
// jitter, bounded by attempts and/or an overall virtual-time budget.
type Policy struct {
	// Base is the backoff before the second attempt; each further retry
	// multiplies it by Mult, capped at Cap.
	Base time.Duration
	Cap  time.Duration
	Mult float64
	// Jitter is the maximum extra delay added to each backoff, drawn
	// uniformly from [0, Jitter) off the executor's injected rand stream.
	// Jitter decorrelates retry storms without breaking determinism.
	Jitter time.Duration
	// MaxAttempts bounds total attempts (0 = unbounded; rely on Budget).
	MaxAttempts int
	// Budget bounds the whole loop in virtual time from the first
	// attempt: a retry that would start after Budget is not scheduled
	// (0 = unbounded).
	Budget time.Duration
	// Retryable classifies errors; a nil func retries everything.
	// Non-retryable errors end the loop immediately (site policy said no;
	// asking again cannot help).
	Retryable func(error) bool
}

// DefaultPolicy returns the stack-wide default retry shape: 10s base
// doubling to a 5m cap, up to 10s of jitter, at most 6 attempts.
func DefaultPolicy() Policy {
	return Policy{
		Base:        10 * time.Second,
		Cap:         5 * time.Minute,
		Mult:        2,
		Jitter:      10 * time.Second,
		MaxAttempts: 6,
	}
}

// withDefaults fills zero fields so a partially specified policy behaves.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.Base <= 0 {
		p.Base = d.Base
	}
	if p.Cap <= 0 {
		p.Cap = d.Cap
	}
	if p.Mult < 1 {
		p.Mult = d.Mult
	}
	return p
}

// backoff returns the delay before attempt n+1 (n >= 1), jittered from
// the injected stream.
func (p Policy) backoff(n int, rng *rand.Rand) time.Duration {
	d := float64(p.Base)
	for i := 1; i < n; i++ {
		d *= p.Mult
		if d >= float64(p.Cap) {
			d = float64(p.Cap)
			break
		}
	}
	delay := time.Duration(d)
	if delay > p.Cap {
		delay = p.Cap
	}
	if p.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(p.Jitter)))
	}
	return delay
}

// Op is one retryable asynchronous operation: do the work for the given
// attempt (1-based) and settle through done. Only an attempt's first
// settle counts; a second one, or one from an attempt already retried, is
// ignored.
type Op func(attempt int, done func(error))

// Executor runs Ops under a Policy on the engine clock. All state
// machines run inside engine callbacks (the kernel is single-threaded),
// so no locking is needed and event order is deterministic.
type Executor struct {
	eng *sim.Engine
	rng *rand.Rand
	pol Policy

	// AttemptsN / RetriesN / OKN / FailN count outcomes as plain ints so
	// chaos summaries do not depend on whether tracing is on; fastFailN
	// counts attempts an open breaker refused.
	AttemptsN, RetriesN, OKN, FailN int
	fastFailN                       int

	// inflight tracks active retry loops. The per-loop state machine
	// (attempt number, settled flag) lives on doCall
	// structs reachable from here so that engine snapshots taken mid-loop
	// restore it exactly (see sim/snap.go).
	inflight map[*doCall]struct{}

	tr *obs.Tracer
}

// NewExecutor builds an executor over the engine's virtual clock. The
// rand stream must be non-nil (fork one from the engine); the tracer may
// be nil (all instrumentation stays inert).
func NewExecutor(eng *sim.Engine, rng *rand.Rand, pol Policy, tr *obs.Tracer) *Executor {
	if eng == nil {
		panic("resilience: nil engine")
	}
	if rng == nil {
		panic("resilience: nil rand source (fork one from the engine)")
	}
	e := &Executor{
		eng:      eng,
		rng:      rng,
		pol:      pol.withDefaults(),
		inflight: make(map[*doCall]struct{}),
		tr:       tr,
	}
	if tr != nil { // an untraced run allocates no readers
		tr.CounterFunc("resilience.attempts", func() uint64 { return uint64(e.AttemptsN) })
		tr.CounterFunc("resilience.retries", func() uint64 { return uint64(e.RetriesN) })
		tr.CounterFunc("resilience.ok", func() uint64 { return uint64(e.OKN) })
		tr.CounterFunc("resilience.giveups", func() uint64 { return uint64(e.FailN) })
		tr.CounterFunc("resilience.breaker.fastfail", func() uint64 { return uint64(e.fastFailN) })
	}
	return e
}

// Policy returns a copy of the executor's default policy, for callers
// that want a per-call variant (set Retryable, tighten Budget, ...).
func (e *Executor) Policy() Policy { return e.pol }

// Do runs op under the executor's default policy. See DoWithPolicy.
func (e *Executor) Do(name string, br *Breaker, op Op, done func(error)) {
	e.DoWithPolicy(name, e.pol, br, op, done)
}

// DoWithPolicy runs op now and retries failures per pol, gated by br
// (nil = ungated): a denied attempt settles as ErrBreakerOpen — without
// charging the breaker a failure — and retries like any transient error.
// done is called exactly once with nil on success or a terminal error
// wrapping the last attempt's failure.
func (e *Executor) DoWithPolicy(name string, pol Policy, br *Breaker, op Op, done func(error)) {
	c := &doCall{
		e:     e,
		pol:   pol.withDefaults(),
		br:    br,
		op:    op,
		done:  done,
		start: e.eng.Now(),
	}
	if e.tr != nil {
		c.span = e.tr.Begin("resilience.do", obs.String("op", name))
	}
	e.inflight[c] = struct{}{}
	restore := e.tr.EnterScope(c.span)
	defer restore()
	c.attempt(1)
}

// doCall is one retry loop in flight: all mutable loop state lives here,
// not in closure captures, so mid-loop snapshots restore exactly.
type doCall struct {
	e     *Executor
	pol   Policy
	br    *Breaker
	op    Op
	done  func(error)
	span  obs.SpanContext
	start time.Duration

	attempts int
	// settled and admitted describe the CURRENT attempt (c.attempts);
	// settle calls carry the attempt number they belong to, so a late
	// completion from an abandoned attempt cannot touch a newer one.
	settled  bool
	admitted bool
}

func (c *doCall) finish(err error) {
	delete(c.e.inflight, c)
	if err == nil {
		c.e.OKN++
	} else {
		c.e.FailN++
	}
	c.span.End(obs.Int("attempts", c.attempts), obs.Err(err))
	c.done(err)
}

func (c *doCall) attempt(n int) {
	c.attempts = n
	c.settled = false
	c.admitted = false
	settle := func(opErr error) { c.settle(n, opErr) }
	if !c.br.Allow() {
		c.e.fastFailN++
		settle(fmt.Errorf("%w: %s", ErrBreakerOpen, c.br.Name()))
		return
	}
	c.admitted = true
	c.e.AttemptsN++
	c.op(n, settle)
}

// settle records the outcome of attempt n; settles from superseded
// attempts (or a second settle of the current one) are ignored.
func (c *doCall) settle(n int, opErr error) {
	if c.settled || c.attempts != n {
		return
	}
	c.settled = true
	e := c.e
	if opErr == nil {
		c.br.Success()
		c.finish(nil)
		return
	}
	if !errors.Is(opErr, ErrBreakerOpen) {
		c.br.Failure()
	} else if c.admitted {
		// The op was admitted here but refused by a downstream
		// gate over the same breaker: release the probe slot this
		// admission may hold, or the breaker jams half-open.
		c.br.Abort()
	}
	c.span.Event("resilience.attempt_failed",
		obs.Int("attempt", n), obs.Err(opErr))
	if c.pol.Retryable != nil && !c.pol.Retryable(opErr) {
		c.finish(opErr)
		return
	}
	if c.pol.MaxAttempts > 0 && n >= c.pol.MaxAttempts {
		c.finish(fmt.Errorf("%w (%d): %w", ErrRetriesExhausted, n, opErr))
		return
	}
	delay := c.pol.backoff(n, e.rng)
	if c.pol.Budget > 0 && e.eng.Now()+delay-c.start > c.pol.Budget {
		c.finish(fmt.Errorf("%w (%v): %w", ErrBudgetExhausted, c.pol.Budget, opErr))
		return
	}
	e.RetriesN++
	e.schedule(delay, c.span, func() { c.attempt(n + 1) })
}

// schedule runs fn after delay, attributed to span when tracing is on.
func (e *Executor) schedule(delay time.Duration, span obs.SpanContext, fn func()) {
	if e.tr != nil {
		e.tr.Schedule(delay, span, fn)
		return
	}
	e.eng.Schedule(delay, fn)
}

// Kit bundles one federation's resilience machinery: a shared executor,
// the per-site breaker set, and the lease renewer, all over one engine
// and one forked rand stream.
type Kit struct {
	Retry    *Executor
	Breakers *BreakerSet
	Renewer  *Renewer
}

// NewKit builds the standard kit: default policy and breaker config,
// renewal at the default lead fraction. The tracer may be nil.
func NewKit(eng *sim.Engine, rng *rand.Rand, tr *obs.Tracer) *Kit {
	ex := NewExecutor(eng, rng, DefaultPolicy(), tr)
	return &Kit{
		Retry:    ex,
		Breakers: NewBreakerSet(eng, DefaultBreakerConfig(), tr),
		Renewer:  NewRenewer(eng, ex, RenewerConfig{}, tr),
	}
}
