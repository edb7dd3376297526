package resilience

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BreakerConfig shapes the per-site circuit breakers.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker.
	Threshold int
	// Cooldown is how long an open breaker refuses attempts before
	// half-opening for a probe (virtual time).
	Cooldown time.Duration
	// HalfOpenSuccesses is how many consecutive probe successes re-close
	// a half-open breaker.
	HalfOpenSuccesses int
}

// DefaultBreakerConfig trips after 3 consecutive failures, cools down
// for 5 minutes, and re-closes on a single successful probe.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Threshold: 3, Cooldown: 5 * time.Minute, HalfOpenSuccesses: 1}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = d.Cooldown
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = d.HalfOpenSuccesses
	}
	return c
}

// Breaker states.
const (
	StateClosed   = "closed"
	StateOpen     = "open"
	StateHalfOpen = "half-open"
)

// Breaker is one target's circuit breaker. Transitions are lazy — the
// open→half-open move happens when Allow is consulted after the
// cool-down, not on a scheduled event — so an idle breaker costs no
// engine events. A nil *Breaker is valid and always allows (the off
// switch, mirroring the nil obs.Tracer convention).
type Breaker struct {
	name string
	eng  *sim.Engine
	cfg  BreakerConfig

	state       string
	consecFails int
	openedAt    time.Duration
	halfOpenOK  int
	probing     bool // a half-open probe is in flight

	// TripsN / ReclosesN count state transitions as plain ints.
	TripsN, ReclosesN int
}

// NewBreaker builds a closed breaker over the engine clock.
func NewBreaker(eng *sim.Engine, name string, cfg BreakerConfig, tr *obs.Tracer) *Breaker {
	if eng == nil {
		panic("resilience: nil engine")
	}
	b := &Breaker{
		name:  name,
		eng:   eng,
		cfg:   cfg.withDefaults(),
		state: StateClosed,
	}
	if tr != nil { // an untraced run allocates no readers
		tr.CounterFunc("resilience.breaker.trips", func() uint64 { return uint64(b.TripsN) })
		tr.CounterFunc("resilience.breaker.recloses", func() uint64 { return uint64(b.ReclosesN) })
	}
	return b
}

// Name returns the breaker's target name ("" on nil).
func (b *Breaker) Name() string {
	if b == nil {
		return ""
	}
	return b.name
}

// State returns the effective state at the current virtual time: an open
// breaker whose cool-down has elapsed reads as half-open even before the
// next Allow performs the transition.
func (b *Breaker) State() string {
	if b == nil {
		return StateClosed
	}
	if b.state == StateOpen && b.eng.Now() >= b.openedAt+b.cfg.Cooldown {
		return StateHalfOpen
	}
	return b.state
}

// Ready reports whether an attempt would currently be admitted, without
// consuming the half-open probe slot. Candidate-selection loops use this
// to skip targets the breaker has written off.
func (b *Breaker) Ready() bool {
	if b == nil {
		return true
	}
	switch b.State() {
	case StateClosed:
		return true
	case StateHalfOpen:
		return !b.probing
	default:
		return false
	}
}

// Allow admits or refuses an attempt. After the cool-down it transitions
// open→half-open and admits exactly one probe at a time; the probe's
// Success/Failure decides what happens next.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	if b.state == StateOpen && b.eng.Now() >= b.openedAt+b.cfg.Cooldown {
		b.state = StateHalfOpen
		b.halfOpenOK = 0
		b.probing = false
	}
	switch b.state {
	case StateClosed:
		return true
	case StateHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// Success records a successful attempt: it resets the failure streak and
// re-closes a half-open breaker once enough probes succeed. A no-op on
// nil.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	switch b.state {
	case StateClosed:
		b.consecFails = 0
	case StateHalfOpen:
		b.probing = false
		b.halfOpenOK++
		if b.halfOpenOK >= b.cfg.HalfOpenSuccesses {
			b.state = StateClosed
			b.consecFails = 0
			b.ReclosesN++
		}
	}
}

// Abort releases a half-open probe without a verdict: the admitted
// attempt was refused downstream before reaching the target (e.g. by a
// second gate over the same breaker), so no connectivity information
// was gained and the probe slot must not stay consumed. A no-op on nil.
func (b *Breaker) Abort() {
	if b == nil {
		return
	}
	if b.state == StateHalfOpen {
		b.probing = false
	}
}

// Failure records a failed attempt: it trips a closed breaker at the
// threshold and re-opens a half-open one (restarting the cool-down). A
// no-op on nil.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	switch b.state {
	case StateClosed:
		b.consecFails++
		if b.consecFails >= b.cfg.Threshold {
			b.trip()
		}
	case StateHalfOpen:
		b.probing = false
		b.trip()
	}
}

func (b *Breaker) trip() {
	b.state = StateOpen
	b.openedAt = b.eng.Now()
	b.consecFails = 0
	b.TripsN++
}

// BreakerSet is the per-site breaker registry one federation shares: all
// layers consulting the same set agree on a site's health.
type BreakerSet struct {
	eng *sim.Engine
	cfg BreakerConfig
	tr  *obs.Tracer
	m   map[string]*Breaker
}

// NewBreakerSet builds an empty registry; breakers are created closed on
// first use.
func NewBreakerSet(eng *sim.Engine, cfg BreakerConfig, tr *obs.Tracer) *BreakerSet {
	if eng == nil {
		panic("resilience: nil engine")
	}
	return &BreakerSet{eng: eng, cfg: cfg.withDefaults(), tr: tr, m: make(map[string]*Breaker)}
}

// For returns (creating on first use) the breaker for a target. A nil
// set returns a nil breaker, which always allows.
func (s *BreakerSet) For(name string) *Breaker {
	if s == nil {
		return nil
	}
	b, ok := s.m[name]
	if !ok {
		b = NewBreaker(s.eng, name, s.cfg, s.tr)
		s.m[name] = b
	}
	return b
}

// Trips sums trips across all breakers (0 on nil).
func (s *BreakerSet) Trips() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, b := range s.m {
		n += b.TripsN
	}
	return n
}

// Recloses sums re-closes across all breakers (0 on nil).
func (s *BreakerSet) Recloses() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, b := range s.m {
		n += b.ReclosesN
	}
	return n
}

// NotClosed returns the names of breakers whose effective state is not
// closed, sorted for deterministic reporting.
func (s *BreakerSet) NotClosed() []string {
	if s == nil {
		return nil
	}
	var out []string
	for name, b := range s.m {
		if b.State() != StateClosed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
