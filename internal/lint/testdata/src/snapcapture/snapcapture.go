// Package snapcapture is gridlint corpus: closures scheduled as engine
// events must not capture mutable state the snapshot walker cannot see.
// Captured locals that the callback rebinds, and locally created
// pointer state whose only reference is the scheduled func value, both
// survive Engine.Fork rewinds silently.
package snapcapture

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// preHoistChaosRun is the exact shape of the chaos driver before its
// job-stream state was hoisted into a SnapRoot-registered struct: a job
// counter and a private rng live only in ticker captures, so a forked
// timeline replays with post-snapshot job IDs and rng state.
func preHoistChaosRun(eng *sim.Engine, seed int64) {
	next := 0
	jobRng := rand.New(rand.NewSource(seed + 1))
	seen := make(map[int]bool)
	_ = eng.NewTicker(time.Minute, func() { // want `mutates captured local "next"` // want `locally created "jobRng"` // want `locally created "seen"`
		id := next
		next++
		if jobRng.Intn(100) < 50 {
			seen[id] = true
		}
	})
}

// hoistedChaosRun is the fixed shape: all run state lives in a struct
// registered as a snapshot root, and the callback is a method value.
type chaosState struct {
	next   int
	jobRng *rand.Rand
	seen   map[int]bool
}

func (c *chaosState) tick() {
	id := c.next
	c.next++
	if c.jobRng.Intn(100) < 50 {
		c.seen[id] = true
	}
}

func hoistedChaosRun(eng *sim.Engine, seed int64) {
	c := &chaosState{jobRng: rand.New(rand.NewSource(seed + 1)), seen: make(map[int]bool)}
	eng.SnapRoot("corpus.chaos", c)
	_ = eng.NewTicker(time.Minute, c.tick)
}

// A method value whose receiver is fresh local state that is never
// anchored anywhere is just as invisible as a closure capture.
func badMethodValue(eng *sim.Engine, seed int64) {
	c := &chaosState{jobRng: rand.New(rand.NewSource(seed)), seen: make(map[int]bool)}
	_ = eng.NewTicker(time.Minute, c.tick) // want `locally created "c"`
}

// Rebinding any captured local inside the callback is flagged on every
// scheduling surface.
func badTimer(eng *sim.Engine) {
	n := 0
	_ = eng.NewTimer(func() { n++ }) // want `mutates captured local "n"`
}

func badWindow(eng *sim.Engine) {
	active := false
	_ = eng.NewWindow(time.Hour, time.Hour,
		func() { active = true },  // want `mutates captured local "active"`
		func() { active = false }) // want `mutates captured local "active"`
	_ = active
}

func badTracerSchedule(eng *sim.Engine, tr *obs.Tracer, ctx obs.SpanContext) {
	hits := 0
	_ = tr.Schedule(time.Second, ctx, func() { hits++ }) // want `mutates captured local "hits"`
}

func badResilienceOp(ex *resilience.Executor, br *resilience.Breaker) {
	attempts := 0
	ex.Do("corpus.op", br, nil, func(attempt int, settle func(error)) { // want `mutates captured local "attempts"`
		attempts++
		settle(nil)
	}, func(error) {})
}

// Do's done callback is an engine event too.
func badResilienceDone(ex *resilience.Executor) {
	outcomes := 0
	ex.Do("corpus.op", nil, nil, func(_ int, settle func(error)) { settle(nil) },
		func(error) { outcomes++ }) // want `mutates captured local "outcomes"`
}

// Writing through a captured value-typed local mutates the shared
// closure cell itself, not a separately-anchored pointee.
type stats struct{ n int }

func badValueWrite(eng *sim.Engine) {
	var st stats
	_ = eng.Schedule(time.Second, func() { st.n++ }) // want `mutates captured local "st"`
}

// One call level deep: a scheduled closure that invokes a named local
// closure shares its captures.
func badDepthOne(eng *sim.Engine) {
	count := 0
	bump := func() { count++ }
	_ = eng.Schedule(time.Second, func() { bump() }) // want `mutates captured local "count"`
}

// ---- patterns that must stay silent ------------------------------------

// Registering the state (directly or by address) anchors it for the
// walker; writes through the pointer are then rewindable.
func goodSnapRooted(eng *sim.Engine) {
	st := &stats{}
	eng.SnapRoot("corpus.stats", st)
	_ = eng.Schedule(time.Second, func() { st.n++ })
}

func goodAddrRegistered(eng *sim.Engine) {
	var st stats
	eng.SnapRoot("corpus.stats2", &st)
	_ = eng.Schedule(time.Second, func() { st.n++ })
}

// Anchoring as a map key is enough: the walker visits map keys.
func goodMapKeyAnchor(eng *sim.Engine, inflight map[*stats]struct{}) {
	st := &stats{}
	inflight[st] = struct{}{}
	_ = eng.Schedule(time.Second, func() { st.n++ })
}

// The self-rescheduling closure idiom: the func variable itself is not
// mutable state, and reading captured config is fine.
func goodRecursion(eng *sim.Engine, r *stats) {
	period := time.Second
	var tick func()
	tick = func() {
		r.n++ // r is a parameter: its owner anchors it
		_ = eng.Schedule(period, tick)
	}
	_ = eng.Schedule(period, tick)
}

// Kernel handles self-capture: Snapshot walks the engine natively.
func goodKernelCapture(eng *sim.Engine) {
	ev := eng.Schedule(time.Hour, func() {})
	_ = eng.Schedule(time.Second, func() { eng.Cancel(ev) })
}

// An audited capture is silenced by a reasoned directive.
func goodSuppressed(eng *sim.Engine) {
	n := 0
	//gridlint:ignore snapcapture corpus: exercises suppression of an audited capture
	_ = eng.Schedule(time.Second, func() { n++ })
}

// A directive that suppresses nothing is itself a finding.
func staleDirective(eng *sim.Engine) {
	//gridlint:ignore snapcapture nothing on the next line trips the analyzer // want `suppresses nothing`
	_ = eng.Schedule(time.Second, func() {})
}
