package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func newExec(t *testing.T, seed int64, pol Policy) (*sim.Engine, *Executor) {
	t.Helper()
	eng := sim.NewEngine(seed)
	return eng, NewExecutor(eng, eng.ForkRand(), pol, nil)
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	eng, ex := newExec(t, 1, Policy{Base: 10 * time.Second, Cap: time.Minute, Mult: 2, Jitter: time.Second})
	fails := 3
	var got error
	settled := false
	ex.Do("op", nil, func(attempt int, done func(error)) {
		if fails > 0 {
			fails--
			done(errors.New("transient"))
			return
		}
		done(nil)
	}, func(err error) { got = err; settled = true })
	eng.Run()
	if !settled || got != nil {
		t.Fatalf("want success, got settled=%v err=%v", settled, got)
	}
	if ex.AttemptsN != 4 || ex.RetriesN != 3 || ex.OKN != 1 {
		t.Fatalf("counter mismatch: attempts=%d retries=%d ok=%d", ex.AttemptsN, ex.RetriesN, ex.OKN)
	}
	// Three backoffs of >= 10s+20s+40s must have elapsed on the virtual clock.
	if eng.Now() < 70*time.Second {
		t.Fatalf("backoff did not consume virtual time: now=%v", eng.Now())
	}
}

func TestDoBackoffDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		eng, ex := newExec(t, 42, Policy{Base: 5 * time.Second, Cap: time.Minute, Mult: 2, Jitter: 20 * time.Second, MaxAttempts: 5})
		var at []time.Duration
		ex.Do("op", nil, func(attempt int, done func(error)) {
			at = append(at, eng.Now())
			done(errors.New("always fails"))
		}, func(error) {})
		eng.Run()
		return at
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different attempt schedules:\n%v\n%v", a, b)
	}
	if len(a) != 5 {
		t.Fatalf("want 5 attempts, got %d", len(a))
	}
	// Jitter must actually move at least one attempt off the unjittered grid.
	unjittered := []time.Duration{0, 5 * time.Second, 15 * time.Second, 35 * time.Second, 75 * time.Second}
	same := true
	for i := range a {
		if a[i] != unjittered[i] {
			same = false
		}
	}
	if same {
		t.Fatal("jitter drew nothing from the rand stream")
	}
}

func TestDoMaxAttemptsExhausted(t *testing.T) {
	eng, ex := newExec(t, 1, Policy{Base: time.Second, Cap: time.Minute, Mult: 2, MaxAttempts: 3})
	var got error
	ex.Do("op", nil, func(attempt int, done func(error)) {
		done(errors.New("nope"))
	}, func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", got)
	}
	if ex.AttemptsN != 3 || ex.FailN != 1 {
		t.Fatalf("attempts=%d fail=%d", ex.AttemptsN, ex.FailN)
	}
}

func TestDoBudgetExhausted(t *testing.T) {
	eng, ex := newExec(t, 1, Policy{Base: time.Minute, Cap: time.Hour, Mult: 2, Budget: 90 * time.Second})
	var got error
	ex.Do("op", nil, func(attempt int, done func(error)) {
		done(errors.New("nope"))
	}, func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", got)
	}
	if eng.Now() > 90*time.Second {
		t.Fatalf("retried past the budget: now=%v", eng.Now())
	}
}

func TestDoNonRetryableStopsImmediately(t *testing.T) {
	permanent := errors.New("policy refusal")
	pol := Policy{Base: time.Second, MaxAttempts: 5, Retryable: func(err error) bool { return !errors.Is(err, permanent) }}
	eng, ex := newExec(t, 1, pol)
	var got error
	ex.Do("op", nil, func(attempt int, done func(error)) { done(permanent) }, func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, permanent) {
		t.Fatalf("want the permanent error, got %v", got)
	}
	if ex.AttemptsN != 1 || ex.RetriesN != 0 {
		t.Fatalf("retried a non-retryable error: attempts=%d retries=%d", ex.AttemptsN, ex.RetriesN)
	}
}

// TestDoDoubleSettleAcrossRetryIgnored: only an attempt's first settle
// counts. Every attempt fails and settles again, as a success, a minute
// later. Attempt 1 fails at once, so its late success lands while
// attempt 2 is still pending; attempt 2 fails after two minutes, so its
// late success lands after the loop has given up. Neither may end the
// loop, start an attempt or reach done.
func TestDoDoubleSettleAcrossRetryIgnored(t *testing.T) {
	eng, ex := newExec(t, 1, Policy{Base: time.Second, MaxAttempts: 2})
	var attempts []int
	var results []error
	ex.Do("op", nil, func(attempt int, done func(error)) {
		attempts = append(attempts, attempt)
		fail := time.Duration(attempt-1) * 2 * time.Minute
		eng.Schedule(fail, func() { done(errors.New("nope")) })
		eng.Schedule(fail+time.Minute, func() { done(nil) })
	}, func(err error) { results = append(results, err) })
	eng.Run()
	if fmt.Sprint(attempts) != "[1 2]" {
		t.Fatalf("attempts = %v, want [1 2]", attempts)
	}
	if len(results) != 1 || !errors.Is(results[0], ErrRetriesExhausted) {
		t.Fatalf("want exactly one exhausted outcome, got %v", results)
	}
	if ex.OKN != 0 || ex.FailN != 1 || ex.AttemptsN != 2 {
		t.Fatalf("ok=%d fail=%d attempts=%d, want 0, 1, 2", ex.OKN, ex.FailN, ex.AttemptsN)
	}
}

func TestBreakerTripHalfOpenReclose(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := BreakerConfig{Threshold: 3, Cooldown: 5 * time.Minute, HalfOpenSuccesses: 1}
	b := NewBreaker(eng, "s0", cfg, nil)

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Failure()
	}
	if b.State() != StateOpen || b.TripsN != 1 {
		t.Fatalf("want open after threshold, got %s trips=%d", b.State(), b.TripsN)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt")
	}

	eng.RunUntil(5 * time.Minute)
	if b.State() != StateHalfOpen {
		t.Fatalf("want half-open after cooldown, got %s", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Success()
	if b.State() != StateClosed || b.ReclosesN != 1 {
		t.Fatalf("want re-closed, got %s recloses=%d", b.State(), b.ReclosesN)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	eng := sim.NewEngine(1)
	b := NewBreaker(eng, "s0", BreakerConfig{Threshold: 1, Cooldown: time.Minute}, nil)
	b.Allow()
	b.Failure()
	eng.RunUntil(time.Minute)
	if !b.Allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	b.Failure()
	if b.State() != StateOpen || b.TripsN != 2 {
		t.Fatalf("want re-opened, got %s trips=%d", b.State(), b.TripsN)
	}
	// Ready must not consume the probe slot.
	eng.RunUntil(2 * time.Minute)
	if !b.Ready() || !b.Ready() {
		t.Fatal("Ready consumed the probe slot")
	}
	if !b.Allow() {
		t.Fatal("probe refused after Ready checks")
	}
}

func TestNilBreakerAlwaysAllows(t *testing.T) {
	var b *Breaker
	if !b.Allow() || !b.Ready() || b.State() != StateClosed {
		t.Fatal("nil breaker must be an open gate")
	}
	b.Success()
	b.Failure() // must not panic
}

func TestExecutorBreakerFastFailRetries(t *testing.T) {
	eng := sim.NewEngine(1)
	ex := NewExecutor(eng, eng.ForkRand(), Policy{Base: time.Minute, Cap: time.Minute, Mult: 1}, nil)
	b := NewBreaker(eng, "s0", BreakerConfig{Threshold: 1, Cooldown: 3 * time.Minute}, nil)
	b.Allow()
	b.Failure() // trip it
	attempts := 0
	var got error
	ex.Do("op", b, func(attempt int, done func(error)) {
		attempts++
		done(nil)
	}, func(err error) { got = err })
	eng.Run()
	if got != nil {
		t.Fatalf("want eventual success through half-open, got %v", got)
	}
	if attempts != 1 {
		t.Fatalf("op ran %d times; fast-fails must not invoke it", attempts)
	}
	if eng.Now() < 3*time.Minute {
		t.Fatalf("succeeded before the cooldown elapsed: now=%v", eng.Now())
	}
	if b.State() != StateClosed {
		t.Fatalf("probe success did not re-close: %s", b.State())
	}
}

func TestBreakerSetDeterministicReporting(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewBreakerSet(eng, BreakerConfig{Threshold: 1, Cooldown: time.Hour}, nil)
	for _, name := range []string{"s2", "s0", "s1"} {
		b := s.For(name)
		b.Allow()
		b.Failure()
	}
	s.For("s3") // untouched, stays closed
	want := []string{"s0", "s1", "s2"}
	got := s.NotClosed()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("NotClosed = %v, want %v", got, want)
	}
	if s.Trips() != 3 || s.Recloses() != 0 {
		t.Fatalf("trips=%d recloses=%d", s.Trips(), s.Recloses())
	}
}

func TestRenewerRenewsBeforeExpiry(t *testing.T) {
	eng := sim.NewEngine(1)
	ex := NewExecutor(eng, eng.ForkRand(), Policy{Base: time.Second, Jitter: 0}, nil)
	r := NewRenewer(eng, ex, RenewerConfig{Lead: 0.25}, nil)
	term := time.Hour
	var renewedAt []time.Duration
	var horizon time.Duration = term
	r.Track("lease1", term, term, nil, func(target time.Duration, done func(error)) {
		renewedAt = append(renewedAt, eng.Now())
		horizon = target
		done(nil)
	})
	eng.RunUntil(3 * time.Hour)
	r.Untrack("lease1")
	if len(renewedAt) < 3 {
		t.Fatalf("want >= 3 renewals over 3 terms, got %d", len(renewedAt))
	}
	// First renewal lands at 75% of the term; each success extends by one term.
	if renewedAt[0] != 45*time.Minute {
		t.Fatalf("first renewal at %v, want 45m", renewedAt[0])
	}
	if horizon <= 3*time.Hour {
		t.Fatalf("horizon %v never got ahead of the clock", horizon)
	}
	if r.RenewedN != len(renewedAt) {
		t.Fatalf("RenewedN=%d, cycles=%d", r.RenewedN, len(renewedAt))
	}
}

func TestRenewerGivesUpAtExpiryBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	ex := NewExecutor(eng, eng.ForkRand(), Policy{Base: 2 * time.Minute, Cap: 2 * time.Minute, Mult: 1, Jitter: 0}, nil)
	r := NewRenewer(eng, ex, RenewerConfig{Lead: 0.25}, nil)
	fail := errors.New("site unreachable")
	attempts := 0
	r.Track("lease1", 20*time.Minute, 20*time.Minute, nil, func(target time.Duration, done func(error)) {
		attempts++
		done(fail)
	})
	eng.RunUntil(time.Hour)
	if r.GiveupsN != 1 {
		t.Fatalf("want exactly one abandoned cycle, got %d (attempts=%d)", r.GiveupsN, attempts)
	}
	if attempts < 2 {
		t.Fatalf("renewer gave up without retrying (attempts=%d)", attempts)
	}
	// All attempts must land before the claim expired.
	if eng.Now() < 20*time.Minute {
		t.Fatal("clock did not advance past expiry")
	}
}

func TestRenewerUntrackCancelsMidFlight(t *testing.T) {
	eng := sim.NewEngine(1)
	ex := NewExecutor(eng, eng.ForkRand(), Policy{Base: time.Minute, Mult: 1, Jitter: 0}, nil)
	r := NewRenewer(eng, ex, RenewerConfig{}, nil)
	calls := 0
	r.Track("x", time.Hour, time.Hour, nil, func(target time.Duration, done func(error)) {
		calls++
		done(errors.New("failing"))
	})
	eng.RunUntil(46 * time.Minute) // first attempt at 45m fails; retry pending
	r.Untrack("x")
	eng.RunUntil(2 * time.Hour)
	if r.Tracked("x") {
		t.Fatal("still tracked after Untrack")
	}
	if calls > 2 {
		t.Fatalf("renewal kept running after Untrack: %d calls", calls)
	}
}

func TestKitConstruction(t *testing.T) {
	eng := sim.NewEngine(7)
	kit := NewKit(eng, eng.ForkRand(), nil)
	if kit.Retry == nil || kit.Breakers == nil || kit.Renewer == nil {
		t.Fatal("kit missing a component")
	}
	if kit.Breakers.For("s0") == nil {
		t.Fatal("breaker set refused to mint")
	}
}

// Regression: an attempt the executor admits (consuming the half-open
// probe slot) may be refused downstream by a second gate over the same
// breaker, settling ErrBreakerOpen. The executor must release the probe
// it holds — otherwise the breaker jams half-open forever, with every
// later Allow refused by a probe nobody is running.
func TestAdmittedBreakerOpenReleasesProbe(t *testing.T) {
	eng, ex := newExec(t, 9, Policy{Base: time.Second, Cap: time.Second, MaxAttempts: 1})
	br := NewBreaker(eng, "site", BreakerConfig{Threshold: 1, Cooldown: time.Minute}, nil)
	br.Failure() // trip
	eng.RunUntil(time.Minute)

	settled := false
	ex.Do("op", br, func(_ int, done func(error)) {
		// Downstream gate consults the same breaker: the slot is held by
		// the executor's own admission, so it refuses.
		if br.Allow() {
			t.Error("downstream gate won the probe the executor already holds")
		}
		done(fmt.Errorf("%w: site", ErrBreakerOpen))
	}, func(error) { settled = true })
	eng.Run()
	if !settled {
		t.Fatal("op never settled")
	}
	if !br.Ready() {
		t.Fatal("probe slot still held after ErrBreakerOpen settle: breaker jammed half-open")
	}
	// The released slot admits a fresh probe, whose success re-closes.
	if !br.Allow() {
		t.Fatal("released probe slot refused a new probe")
	}
	br.Success()
	if br.State() != StateClosed {
		t.Fatalf("state = %s after successful probe", br.State())
	}
}
