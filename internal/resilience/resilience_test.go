package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func newKit(seed int64) (*sim.Engine, *Kit) {
	eng := sim.NewEngine(seed)
	return eng, NewKit(eng, eng.ForkRand(), nil)
}

// tripped returns a breaker that has just tripped open.
func tripped(eng *sim.Engine) *Breaker {
	b := newBreaker(eng, "s0", nil)
	for i := 0; i < BreakerThreshold; i++ {
		b.Allow()
		b.Failure()
	}
	return b
}

// TestDefaultShape pins the package constants end to end: the backoff
// schedule and its cap, the attempt bound, the renewal point and
// extension, and the renewal budget of the claim's remaining lifetime.
func TestDefaultShape(t *testing.T) {
	fail := errors.New("down")
	type outcome struct {
		at      []time.Duration // virtual time of each attempt
		targets []time.Duration // renewal targets asked for
		err     error
	}
	failing := func(eng *sim.Engine, o *outcome) Op {
		return func(_ int, done func(error)) {
			o.at = append(o.at, eng.Now())
			done(fail)
		}
	}
	renewing := func(eng *sim.Engine, o *outcome, err error) RenewFunc {
		return func(target time.Duration, done func(error)) {
			o.at = append(o.at, eng.Now())
			o.targets = append(o.targets, target)
			done(err)
		}
	}
	s := time.Second
	cases := []struct {
		name    string
		run     func(eng *sim.Engine, k *Kit, o *outcome)
		horizon time.Duration
		first   time.Duration   // the first attempt
		gaps    []time.Duration // unjittered backoff before each later attempt
		targets []time.Duration
		wantErr error
		giveups int
	}{
		{
			name: "Do doubles from BackoffBase and gives up after MaxAttempts",
			run: func(eng *sim.Engine, k *Kit, o *outcome) {
				k.Retry.Do("op", nil, nil, failing(eng, o), func(err error) { o.err = err })
			},
			horizon: time.Hour,
			gaps:    []time.Duration{10 * s, 20 * s, 40 * s, 80 * s, 160 * s},
			wantErr: ErrRetriesExhausted,
		},
		{
			name: "doUntil caps the backoff and stops at its budget",
			run: func(eng *sim.Engine, k *Kit, o *outcome) {
				k.Retry.doUntil("op", nil, 12*time.Minute, failing(eng, o), func(err error) { o.err = err })
			},
			horizon: time.Hour,
			gaps:    []time.Duration{10 * s, 20 * s, 40 * s, 80 * s, 160 * s, BackoffCap},
			wantErr: ErrBudgetExhausted,
		},
		{
			name: "renewal fires at 75% of the term and extends by one term",
			run: func(eng *sim.Engine, k *Kit, o *outcome) {
				k.Renewer.Track("lease", time.Hour, time.Hour, nil, renewing(eng, o, nil))
			},
			horizon: 3 * time.Hour,
			first:   45 * time.Minute,
			gaps:    []time.Duration{time.Hour, time.Hour},
			targets: []time.Duration{2 * time.Hour, 3 * time.Hour, 4 * time.Hour},
		},
		{
			name: "a failing renewal retries until the claim's lifetime runs out",
			run: func(eng *sim.Engine, k *Kit, o *outcome) {
				k.Renewer.Track("lease", 20*time.Minute, 20*time.Minute, nil, renewing(eng, o, fail))
			},
			horizon: time.Hour,
			first:   15 * time.Minute,
			// The next backoff, 160s+, would start past the 5m left.
			gaps:    []time.Duration{10 * s, 20 * s, 40 * s, 80 * s},
			targets: []time.Duration{40 * time.Minute, 40 * time.Minute, 40 * time.Minute, 40 * time.Minute, 40 * time.Minute},
			giveups: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, k := newKit(3)
			var o outcome
			tc.run(eng, k, &o)
			eng.RunUntil(tc.horizon)
			if len(o.at) != 1+len(tc.gaps) {
				t.Fatalf("attempts at %v, want %d", o.at, 1+len(tc.gaps))
			}
			if o.at[0] != tc.first {
				t.Errorf("first attempt at %v, want %v", o.at[0], tc.first)
			}
			for i, want := range tc.gaps {
				if gap := o.at[i+1] - o.at[i]; gap < want || gap >= want+BackoffJitter {
					t.Errorf("gap %d = %v, want %v plus jitter below %v", i+1, gap, want, BackoffJitter)
				}
			}
			if fmt.Sprint(o.targets) != fmt.Sprint(tc.targets) {
				t.Errorf("targets = %v, want %v", o.targets, tc.targets)
			}
			if !errors.Is(o.err, tc.wantErr) {
				t.Errorf("outcome = %v, want %v", o.err, tc.wantErr)
			}
			if k.Renewer.GiveupsN != tc.giveups {
				t.Errorf("GiveupsN = %d, want %d", k.Renewer.GiveupsN, tc.giveups)
			}
		})
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	eng, k := newKit(1)
	ex := k.Retry
	fails := 3
	var got error
	settled := false
	ex.Do("op", nil, nil, func(attempt int, done func(error)) {
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
		eng, k := newKit(42)
		var at []time.Duration
		k.Retry.Do("op", nil, nil, func(attempt int, done func(error)) {
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
	if len(a) != MaxAttempts {
		t.Fatalf("want %d attempts, got %d", MaxAttempts, len(a))
	}
	// Jitter must actually move at least one attempt off the unjittered grid.
	s := time.Second
	unjittered := []time.Duration{0, 10 * s, 30 * s, 70 * s, 150 * s, 310 * s}
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
	eng, k := newKit(1)
	var got error
	k.Retry.Do("op", nil, nil, func(attempt int, done func(error)) {
		done(errors.New("nope"))
	}, func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", got)
	}
	if k.Retry.AttemptsN != MaxAttempts || k.Retry.FailN != 1 {
		t.Fatalf("attempts=%d fail=%d", k.Retry.AttemptsN, k.Retry.FailN)
	}
}

func TestDoBudgetExhausted(t *testing.T) {
	eng, k := newKit(1)
	var got error
	k.Retry.doUntil("op", nil, 90*time.Second, func(attempt int, done func(error)) {
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
	eng, k := newKit(1)
	var got error
	k.Retry.Do("op", nil, func(err error) bool { return !errors.Is(err, permanent) },
		func(attempt int, done func(error)) { done(permanent) }, func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, permanent) {
		t.Fatalf("want the permanent error, got %v", got)
	}
	if k.Retry.AttemptsN != 1 || k.Retry.RetriesN != 0 {
		t.Fatalf("retried a non-retryable error: attempts=%d retries=%d", k.Retry.AttemptsN, k.Retry.RetriesN)
	}
}

// TestDoDoubleSettleAcrossRetryIgnored: only an attempt's first settle
// counts. Every attempt fails and settles again, as a success, a minute
// later. The early attempts fail at once, so their late successes land
// while a later attempt is pending; the last attempt fails after two
// minutes, so its late success lands after the loop has given up.
// Neither may end the loop, start an attempt or reach done.
func TestDoDoubleSettleAcrossRetryIgnored(t *testing.T) {
	eng, k := newKit(1)
	var attempts []int
	var results []error
	k.Retry.Do("op", nil, nil, func(attempt int, done func(error)) {
		attempts = append(attempts, attempt)
		var fail time.Duration
		if attempt == MaxAttempts {
			fail = 2 * time.Minute
		}
		eng.Schedule(fail, func() { done(errors.New("nope")) })
		eng.Schedule(fail+time.Minute, func() { done(nil) })
	}, func(err error) { results = append(results, err) })
	eng.Run()
	if fmt.Sprint(attempts) != "[1 2 3 4 5 6]" {
		t.Fatalf("attempts = %v, want [1 2 3 4 5 6]", attempts)
	}
	if len(results) != 1 || !errors.Is(results[0], ErrRetriesExhausted) {
		t.Fatalf("want exactly one exhausted outcome, got %v", results)
	}
	ex := k.Retry
	if ex.OKN != 0 || ex.FailN != 1 || ex.AttemptsN != MaxAttempts {
		t.Fatalf("ok=%d fail=%d attempts=%d, want 0, 1, %d", ex.OKN, ex.FailN, ex.AttemptsN, MaxAttempts)
	}
}

func TestBreakerTripHalfOpenReclose(t *testing.T) {
	eng := sim.NewEngine(1)
	b := newBreaker(eng, "s0", nil)

	for i := 0; i < BreakerThreshold; i++ {
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

	eng.RunUntil(BreakerCooldown)
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
	b := tripped(eng)
	eng.RunUntil(BreakerCooldown)
	if !b.Allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	b.Failure()
	if b.State() != StateOpen || b.TripsN != 2 {
		t.Fatalf("want re-opened, got %s trips=%d", b.State(), b.TripsN)
	}
	// Ready must not consume the probe slot.
	eng.RunUntil(2 * BreakerCooldown)
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

// TestExecutorBreakerFastFailRetries: a loop started against a breaker
// that has just tripped fast-fails without running the op, and its
// backoff outlasts the cool-down (10+20+40+80+160s > BreakerCooldown),
// so the last attempt is the half-open probe that re-closes it.
func TestExecutorBreakerFastFailRetries(t *testing.T) {
	eng, k := newKit(1)
	b := tripped(eng)
	attempts := 0
	var got error
	k.Retry.Do("op", b, nil, func(attempt int, done func(error)) {
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
	if eng.Now() < BreakerCooldown {
		t.Fatalf("succeeded before the cooldown elapsed: now=%v", eng.Now())
	}
	if b.State() != StateClosed {
		t.Fatalf("probe success did not re-close: %s", b.State())
	}
}

func TestBreakerSetDeterministicReporting(t *testing.T) {
	_, k := newKit(1)
	s := k.Breakers
	for _, name := range []string{"s2", "s0", "s1"} {
		b := s.For(name)
		for i := 0; i < BreakerThreshold; i++ {
			b.Allow()
			b.Failure()
		}
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
	eng, k := newKit(1)
	r := k.Renewer
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
	eng, k := newKit(1)
	r := k.Renewer
	fail := errors.New("site unreachable")
	var at []time.Duration
	r.Track("lease1", 20*time.Minute, 20*time.Minute, nil, func(target time.Duration, done func(error)) {
		at = append(at, eng.Now())
		done(fail)
	})
	eng.RunUntil(time.Hour)
	if r.GiveupsN != 1 {
		t.Fatalf("want exactly one abandoned cycle, got %d (attempts=%d)", r.GiveupsN, len(at))
	}
	if len(at) < 2 {
		t.Fatalf("renewer gave up without retrying (attempts=%d)", len(at))
	}
	// All attempts must land before the claim expired.
	if last := at[len(at)-1]; last >= 20*time.Minute {
		t.Fatalf("attempt at %v, after the claim expired", last)
	}
}

func TestRenewerUntrackCancelsMidFlight(t *testing.T) {
	eng, k := newKit(1)
	r := k.Renewer
	calls := 0
	r.Track("x", time.Hour, time.Hour, nil, func(target time.Duration, done func(error)) {
		calls++
		done(errors.New("failing"))
	})
	eng.RunUntil(45*time.Minute + time.Second) // first attempt at 45m fails; retry pending
	r.Untrack("x")
	eng.RunUntil(2 * time.Hour)
	if _, ok := r.items["x"]; ok {
		t.Fatal("still tracked after Untrack")
	}
	if calls != 1 {
		t.Fatalf("renewal kept running after Untrack: %d calls", calls)
	}
}

func TestKitConstruction(t *testing.T) {
	_, kit := newKit(7)
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
	eng, k := newKit(9)
	br := tripped(eng)
	eng.RunUntil(BreakerCooldown)

	settled := false
	k.Retry.Do("op", br, func(error) bool { return false }, func(_ int, done func(error)) {
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
