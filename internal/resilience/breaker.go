package resilience

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

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

	state       string
	consecFails int
	openedAt    time.Duration
	probing     bool // a half-open probe is in flight

	// TripsN / ReclosesN count state transitions as plain ints.
	TripsN, ReclosesN int
}

// newBreaker builds a closed breaker over the engine clock.
func newBreaker(eng *sim.Engine, name string, tr *obs.Tracer) *Breaker {
	b := &Breaker{name: name, eng: eng, state: StateClosed}
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
	if b.state == StateOpen && b.eng.Now() >= b.openedAt+BreakerCooldown {
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
	if b.state == StateOpen && b.eng.Now() >= b.openedAt+BreakerCooldown {
		b.state = StateHalfOpen
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
// re-closes a half-open breaker. A no-op on nil.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	switch b.state {
	case StateClosed:
		b.consecFails = 0
	case StateHalfOpen:
		b.probing = false
		b.state = StateClosed
		b.consecFails = 0
		b.ReclosesN++
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
		if b.consecFails >= BreakerThreshold {
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
	tr  *obs.Tracer
	m   map[string]*Breaker
}

// newBreakerSet builds an empty registry; breakers are created closed on
// first use.
func newBreakerSet(eng *sim.Engine, tr *obs.Tracer) *BreakerSet {
	return &BreakerSet{eng: eng, tr: tr, m: make(map[string]*Breaker)}
}

// For returns (creating on first use) the breaker for a target. A nil
// set returns a nil breaker, which always allows.
func (s *BreakerSet) For(name string) *Breaker {
	if s == nil {
		return nil
	}
	b, ok := s.m[name]
	if !ok {
		b = newBreaker(s.eng, name, s.tr)
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
