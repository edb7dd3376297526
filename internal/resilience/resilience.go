// Package resilience is gridlab's deterministic fault-handling layer:
// the recovery half of the paper's soft-state story. SHARP tickets are
// *soft* claims that must be refreshed into hard leases before they
// lapse, and short lease/proxy lifetimes trade exposure for renewal
// traffic — which only works if something actually renews, retries, and
// stops hammering dead sites. This package supplies those three
// mechanisms, each with one fixed shape (the constants below):
//
//   - Executor: exponential backoff from BackoffBase doubling to
//     BackoffCap, plus jitter drawn from an injected seeded *rand.Rand,
//     scheduled on the sim.Engine clock (never the wall clock), for at
//     most MaxAttempts attempts. The caller passes only what differs per
//     call: the breaker that gates it and the classifier that decides
//     which errors are worth another attempt. An attempt that goes over
//     the network is bounded by its own simnet.Call timeout.
//   - Breaker: per-site circuit breakers (closed/open/half-open, tripping
//     after BreakerThreshold consecutive failures and half-opening after
//     BreakerCooldown of virtual time) so callers degrade gracefully
//     instead of hammering partitioned or crashed sites.
//   - Renewer: a keepalive loop that re-redeems leases RenewLead of the
//     term before notAfter, retrying through the executor with no
//     attempt bound and the remaining lifetime as its budget.
//
// Determinism contract: the package never reads the wall clock, never
// draws from the global rand stream, and schedules everything on the
// engine, so a run with resilience enabled is byte-identical across
// repeats of the same seed. NewKit is the one constructor — the
// jitterrand analyzer flags composite-literal construction, which could
// smuggle in a jittered backoff with no rand source.
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
	// cool-down, so retry classifiers normally accept it.
	ErrBreakerOpen = errors.New("resilience: breaker open")
	// ErrRetriesExhausted reports MaxAttempts failures.
	ErrRetriesExhausted = errors.New("resilience: attempts exhausted")
	// ErrBudgetExhausted reports that the next renewal retry would start
	// past the claim's remaining lifetime.
	ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")
)

// IsBreakerOpen reports whether err was caused by an open breaker
// refusing the attempt (a connectivity verdict, not an answer from the
// target — callers treating refusals as final should still retry these).
func IsBreakerOpen(err error) bool { return errors.Is(err, ErrBreakerOpen) }

// The one resilience shape. Every production caller runs with these
// values, so they are constants rather than options; a second value
// needs a second production caller that wants it.
const (
	// BackoffBase is the delay before the second attempt; each further
	// retry doubles it, up to BackoffCap.
	BackoffBase = 10 * time.Second
	BackoffCap  = 5 * time.Minute
	// BackoffJitter bounds the extra delay added to every backoff, drawn
	// uniformly from [0, BackoffJitter) off the executor's injected rand
	// stream: it decorrelates retry storms without breaking determinism.
	BackoffJitter = 10 * time.Second
	// MaxAttempts bounds a Do loop; the sixth failure is terminal.
	MaxAttempts = 6

	// BreakerThreshold consecutive failures trip a closed breaker, which
	// then refuses attempts for BreakerCooldown before half-opening for a
	// single probe. One successful probe re-closes it.
	BreakerThreshold = 3
	BreakerCooldown  = 5 * time.Minute

	// RenewLead is the fraction of a claim's term before notAfter at which
	// renewal starts: renew at 75% of the term, as SHARP deployments
	// refresh soft claims well before they lapse. Each successful renewal
	// extends notAfter by one term.
	RenewLead = 0.25
)

// backoff returns the delay before attempt n+1 (n >= 1), jittered from
// rng.
func backoff(n int, rng *rand.Rand) time.Duration {
	d := BackoffBase
	for i := 1; i < n && d < BackoffCap; i++ {
		d *= 2
	}
	return min(d, BackoffCap) + time.Duration(rng.Int63n(int64(BackoffJitter)))
}

// Op is one retryable asynchronous operation: do the work for the given
// attempt (1-based) and settle through done. Only an attempt's first
// settle counts; a second one, or one from an attempt already retried, is
// ignored.
type Op func(attempt int, done func(error))

// Executor runs retry loops on the engine clock. All state machines run
// inside engine callbacks (the kernel is single-threaded), so no locking
// is needed and event order is deterministic.
type Executor struct {
	eng *sim.Engine
	rng *rand.Rand

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

// newExecutor builds an executor over the engine's virtual clock; the
// tracer may be nil (all instrumentation stays inert).
func newExecutor(eng *sim.Engine, rng *rand.Rand, tr *obs.Tracer) *Executor {
	e := &Executor{
		eng:      eng,
		rng:      rng,
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

// Do runs op now and retries failures with the package backoff, for at
// most MaxAttempts attempts, gated by br (nil = ungated): a denied
// attempt settles as ErrBreakerOpen — without charging the breaker a
// failure — and retries like any transient error. retryable classifies
// errors (nil retries every error); a non-retryable error ends the loop
// at once. done is called exactly once with nil on success or a
// terminal error wrapping the last attempt's failure.
func (e *Executor) Do(name string, br *Breaker, retryable func(error) bool, op Op, done func(error)) {
	e.start(name, &doCall{br: br, retryable: retryable, maxAttempts: MaxAttempts, op: op, done: done})
}

// doUntil is the renewer's loop: like Do, but every error is retried and
// attempts are unbounded; a retry that would start more than budget after
// the first attempt is not scheduled (budget <= 0: no bound).
func (e *Executor) doUntil(name string, br *Breaker, budget time.Duration, op Op, done func(error)) {
	e.start(name, &doCall{br: br, budget: budget, op: op, done: done})
}

func (e *Executor) start(name string, c *doCall) {
	c.e = e
	c.start = e.eng.Now()
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
	e           *Executor
	br          *Breaker
	retryable   func(error) bool
	maxAttempts int           // 0 = unbounded
	budget      time.Duration // <= 0 = unbounded
	op          Op
	done        func(error)
	span        obs.SpanContext
	start       time.Duration

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
	if c.retryable != nil && !c.retryable(opErr) {
		c.finish(opErr)
		return
	}
	if c.maxAttempts > 0 && n >= c.maxAttempts {
		c.finish(fmt.Errorf("%w (%d): %w", ErrRetriesExhausted, n, opErr))
		return
	}
	delay := backoff(n, e.rng)
	if c.budget > 0 && e.eng.Now()+delay-c.start > c.budget {
		c.finish(fmt.Errorf("%w (%v): %w", ErrBudgetExhausted, c.budget, opErr))
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

// NewKit builds a federation's kit over the engine clock and the given
// rand stream, which must be non-nil (fork one from the engine). The
// tracer may be nil.
func NewKit(eng *sim.Engine, rng *rand.Rand, tr *obs.Tracer) *Kit {
	if eng == nil {
		panic("resilience: nil engine")
	}
	if rng == nil {
		panic("resilience: nil rand source (fork one from the engine)")
	}
	ex := newExecutor(eng, rng, tr)
	return &Kit{
		Retry:    ex,
		Breakers: newBreakerSet(eng, tr),
		Renewer:  newRenewer(eng, ex, tr),
	}
}
