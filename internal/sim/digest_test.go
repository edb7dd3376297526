package sim

import (
	"math/bits"
	"slices"
	"testing"
	"time"
)

// digestRun runs a fixed ticker workload, plus what extra schedules, to
// 40 s. The snapshot and fork, when asked for, happen at 10 s.
func digestRun(extra func(e *Engine), fork bool) *Engine {
	e := NewEngine(5)
	e.NewTicker(time.Second, func() {})
	e.Schedule(1500*time.Millisecond, func() { e.Schedule(3*time.Second, func() {}) })
	extra(e)
	if fork {
		e.RunUntil(10 * time.Second)
		snap := e.Snapshot()
		e.Schedule(time.Second, func() {}) // the abandoned timeline differs
		e.RunUntil(40 * time.Second)
		snap.Fork()
	}
	e.RunUntil(40 * time.Second)
	return e
}

// An extra no-op event moves the digest though nothing reads it: one
// that fires adds an event, and one scheduled and cancelled shifts every
// later seq. The count stays Processed, with one mark per power of two;
// the runs share the marks of events sequenced before the extra one.
func TestDigestSeesNoOpEvents(t *testing.T) {
	base := digestRun(func(*Engine) {}, false)
	bn, bh := base.Digest()
	for more, extra := range []func(*Engine){
		func(e *Engine) { e.Cancel(e.Schedule(7*time.Second, func() {})) },
		func(e *Engine) { e.Schedule(7*time.Second, func() {}) },
	} {
		e := digestRun(extra, false)
		n, h := e.Digest()
		if n != e.Processed() || n != bn+uint64(more) || h == bh {
			t.Errorf("extra event %d: (%d, %x), Processed %d; base (%d, %x)", more, n, h, e.Processed(), bn, bh)
		}
		if m, bm := e.Marks(), base.Marks(); len(m) != bits.Len64(n) || m[1] != bm[1] || m[len(m)-1] == bm[len(bm)-1] {
			t.Errorf("extra event %d: marks %+v, base %+v", more, m, bm)
		}
	}
}

// The digest rewinds with the timeline: snapshot, run, fork and run
// again ends on the cold run's events, digest and marks. Only the
// generation counter survives a fork, and it is not in the digest.
func TestDigestRewindsOnFork(t *testing.T) {
	cold, forked := digestRun(func(*Engine) {}, false), digestRun(func(*Engine) {}, true)
	cn, ch := cold.Digest()
	if n, h := forked.Digest(); n != cn || h != ch || !slices.Equal(forked.Marks(), cold.Marks()) {
		t.Fatalf("forked run (%d, %x) %+v, cold run (%d, %x) %+v", n, h, forked.Marks(), cn, ch, cold.Marks())
	}
}
