package resilience

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// breakerModel is the breaker's specification as a closed/open/half-open
// state machine at the package constants. Like the breaker, it moves
// open→half-open only when Allow is consulted after the cool-down;
// State and Ready report a cooled open breaker as half-open.
type breakerModel struct {
	state    string
	fails    int
	openedAt time.Duration
	probing  bool
	trips    int
	recloses int
	reached  map[string]bool
}

func (m *breakerModel) cooled(now time.Duration) bool {
	return m.state == StateOpen && now >= m.openedAt+BreakerCooldown
}

func (m *breakerModel) trip(now time.Duration, edge string) {
	m.state, m.openedAt, m.fails, m.probing = StateOpen, now, 0, false
	m.trips++
	m.reached[edge] = true
}

func (m *breakerModel) effective(now time.Duration) string {
	if m.cooled(now) {
		return StateHalfOpen
	}
	return m.state
}

func (m *breakerModel) ready(now time.Duration) bool {
	st := m.effective(now)
	return st == StateClosed || st == StateHalfOpen && !m.probing
}

func (m *breakerModel) allow(now time.Duration) bool {
	if m.cooled(now) {
		m.state, m.probing = StateHalfOpen, false
		m.reached["open->half-open"] = true
	}
	switch {
	case m.state == StateClosed:
		return true
	case m.state == StateHalfOpen && !m.probing:
		m.probing = true
		return true
	}
	m.reached["refused"] = true
	return false
}

func (m *breakerModel) success() {
	switch m.state {
	case StateClosed:
		m.fails = 0
	case StateHalfOpen:
		m.state, m.fails, m.probing = StateClosed, 0, false
		m.recloses++
		m.reached["half-open->closed"] = true
	}
}

func (m *breakerModel) failure(now time.Duration) {
	switch m.state {
	case StateClosed:
		if m.fails++; m.fails == BreakerThreshold {
			m.trip(now, "closed->open")
		}
	case StateHalfOpen:
		m.trip(now, "half-open->open")
	}
}

func (m *breakerModel) abort() {
	if m.state == StateHalfOpen && m.probing {
		m.probing = false
		m.reached["abort releases probe"] = true
	}
}

// breakerEdges are the transitions the seed scripts must reach between
// them, so the model check cannot pass by never leaving closed.
var breakerEdges = []string{
	"closed->open", "refused", "open->half-open", "half-open->closed",
	"half-open->open", "abort releases probe",
}

// Script opcodes: one byte per step, op = b%6, and an advance step moves
// the clock by breakerAdvance[(b/6)%4] — the last two straddle the
// cool-down boundary.
const (
	opAllow byte = iota
	opReady
	opSuccess
	opFailure
	opAbort
	opAdvance
)

var breakerAdvance = [4]time.Duration{time.Second, time.Minute, BreakerCooldown - time.Second, BreakerCooldown}

// advance encodes an advance step by breakerAdvance[i].
func advance(i byte) byte { return opAdvance + 6*i }

// runBreakerModel drives one script through a breaker and the model and
// fails on the first disagreement. It returns the model's reached edges.
func runBreakerModel(t testing.TB, script []byte) map[string]bool {
	eng := sim.NewEngine(1)
	b := newBreaker(eng, "s0", nil)
	m := &breakerModel{state: StateClosed, reached: map[string]bool{}}
	for i, op := range script {
		now := eng.Now()
		switch op % 6 {
		case opAllow:
			if got, want := b.Allow(), m.allow(now); got != want {
				t.Fatalf("step %d Allow at %v = %v, model %v", i, now, got, want)
			}
		case opReady:
			if got, want := b.Ready(), m.ready(now); got != want {
				t.Fatalf("step %d Ready at %v = %v, model %v", i, now, got, want)
			}
		case opSuccess:
			b.Success()
			m.success()
		case opFailure:
			b.Failure()
			m.failure(now)
		case opAbort:
			b.Abort()
			m.abort()
		case opAdvance:
			eng.RunUntil(now + breakerAdvance[(op/6)%4])
		}
		if got, want := b.State(), m.effective(eng.Now()); got != want {
			t.Fatalf("step %d (op %d) state = %s, model %s", i, op%6, got, want)
		}
		if b.TripsN != m.trips || b.ReclosesN != m.recloses {
			t.Fatalf("step %d trips/recloses = %d/%d, model %d/%d", i, b.TripsN, b.ReclosesN, m.trips, m.recloses)
		}
	}
	return m.reached
}

// FuzzBreakerAgreesWithModel checks the breaker against its model on
// arbitrary op scripts, after checking that the seed scripts reach every
// transition of the model.
func FuzzBreakerAgreesWithModel(f *testing.F) {
	trip := []byte{opAllow, opFailure, opAllow, opFailure, opAllow, opFailure}
	cool := advance(3)
	seeds := [][]byte{
		// Two failures, a success resets the streak, so three more trip.
		{opFailure, opFailure, opSuccess, opFailure, opFailure, opReady, opFailure, opAllow, opReady},
		// Trip; one second short of the cool-down it still refuses; then a
		// probe, a refused second probe, and a success that re-closes.
		append(append([]byte{}, trip...), advance(2), opAllow, opReady, advance(0), opReady, opAllow, opAllow, opReady, opSuccess, opAllow),
		// A failed probe re-opens and restarts the cool-down.
		append(append([]byte{}, trip...), cool, opAllow, opFailure, opReady, advance(1), opAllow, cool, opAllow, opSuccess),
		// Abort releases the probe slot; outside half-open it is a no-op.
		append(append([]byte{opAbort}, trip...), opAbort, cool, opAbort, opAllow, opAbort, opReady, opAllow, opFailure, opAbort),
		// Verdicts on a cooled breaker nobody has asked yet change nothing.
		append(append([]byte{}, trip...), cool, opSuccess, opFailure, opReady, opAllow, opSuccess),
	}
	reached := map[string]bool{}
	for _, s := range seeds {
		for e := range runBreakerModel(f, s) {
			reached[e] = true
		}
		f.Add(s)
	}
	for _, e := range breakerEdges {
		if !reached[e] {
			f.Fatalf("no seed script reaches %q", e)
		}
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runBreakerModel(t, script)
	})
}
