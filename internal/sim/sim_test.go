package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(ev)
	if !ev.cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	// Double cancel and the zero handle are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

// A handle kept across its event's firing (or cancellation sweep) goes
// stale: cancelling it must not touch whatever event has since been
// scheduled onto the recycled node.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	e := NewEngine(1)
	stale := e.Schedule(time.Second, func() {})
	e.Run() // fires; node released to the free list
	fired := false
	fresh := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(stale) // stale generation: must not cancel fresh
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
	if fresh.cancelled() {
		t.Error("fresh handle reports cancelled")
	}
}

// Pending must match a brute-force count of live queued events under
// randomized schedule/cancel/run churn (the counter is maintained
// incrementally; this pins it to ground truth).
func TestPendingMatchesBruteForce(t *testing.T) {
	e := NewEngine(1)
	rng := e.ForkRand()
	brute := func() int {
		n := 0
		for _, s := range e.q {
			if e.nodes[s.idx].fire != nil {
				n++
			}
		}
		return n
	}
	var held []Event
	for i := 0; i < 5000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // schedule
			held = append(held, e.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {}))
		case 5, 6, 7: // cancel something (possibly stale, possibly twice)
			if len(held) > 0 {
				e.Cancel(held[rng.Intn(len(held))])
			}
		case 8: // run a little
			e.RunUntil(e.Now() + time.Duration(rng.Intn(50))*time.Millisecond)
		case 9: // step
			e.Step()
		}
		if got, want := e.Pending(), brute(); got != want {
			t.Fatalf("iteration %d: Pending() = %d, brute force = %d", i, got, want)
		}
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
}

// Mass cancellation must trigger tombstone compaction without perturbing
// the firing order of the survivors.
func TestCompactionPreservesOrder(t *testing.T) {
	e := NewEngine(1)
	var evs []Event
	for i := 0; i < 4096; i++ {
		evs = append(evs, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	var want []time.Duration
	for i, ev := range evs {
		if i%4 != 0 {
			e.Cancel(ev)
		} else {
			want = append(want, ev.at)
		}
	}
	if len(e.q) >= len(evs) {
		t.Fatalf("compaction never ran: queue holds %d nodes for %d live events", len(e.q), e.Pending())
	}
	var got []time.Duration
	for e.Step() {
		got = append(got, e.Now())
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fire %d at %v, want %v", i, got[i], want[i])
		}
	}
}

// Steady-state ticker churn must not allocate: the ticker owns one
// closure for life and its event node cycles through the free list.
func TestTickerSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := e.NewTicker(time.Second, func() { n++ })
	defer tk.Stop()
	e.RunUntil(10 * time.Second) // warm the free list and arena chunk
	avg := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 100*time.Second)
	})
	if avg > 0.5 {
		t.Errorf("ticker steady state allocates %.1f allocs per 100 ticks, want 0", avg)
	}
	if n == 0 {
		t.Fatal("ticker never ticked")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []time.Duration
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("nested times = %v", times)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	// RunUntil advances the clock even with no events.
	e2 := NewEngine(1)
	e2.RunUntil(5 * time.Second)
	if e2.Now() != 5*time.Second {
		t.Errorf("empty RunUntil Now = %v", e2.Now())
	}
}

func TestEnginePanicsOnPast(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	e.At(0, func() {})
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Schedule(-time.Second, func() {})
}

func TestEngineDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.rng.Int63() != b.rng.Int63() {
			t.Fatal("same-seed engines diverge")
		}
	}
}

func TestTimerResetStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Reset(time.Second)
	tm.Reset(2 * time.Second) // supersedes
	e.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("timer fired at %v, want 2s", e.Now())
	}
	tm.Reset(time.Second)
	tm.Stop()
	tm.Stop() // idempotent
	e.Run()
	if fired != 1 {
		t.Errorf("stopped timer fired")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []time.Duration
	var tk *Ticker
	tk = e.NewTicker(time.Second, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, at := range ticks {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

// CancelAll empties the queue at once: live events and tombstones alike
// are recycled with their closures dropped, every handle goes stale, a
// ticker stops ticking, the clock stays, and the engine schedules anew.
func TestCancelAll(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	evs := []Event{
		e.Schedule(time.Second, func() { fired++ }),
		e.Schedule(2*time.Second, func() { fired++ }),
		e.Schedule(3*time.Second, func() { fired++ }),
	}
	e.Cancel(evs[1]) // a tombstone
	tk := e.NewTicker(time.Second, func() { fired++ })
	e.RunUntil(500 * time.Millisecond)
	e.CancelAll()
	if e.Pending() != 0 || len(e.q) != 0 {
		t.Fatalf("after CancelAll: %d pending, %d queued", e.Pending(), len(e.q))
	}
	for i := range e.nodes {
		if e.nodes[i].fire != nil {
			t.Errorf("node %d still holds its event", i)
		}
	}
	for i, ev := range evs {
		if e.Cancel(ev); ev.cancelled() || ev.live() {
			t.Errorf("handle %d still names an event", i)
		}
	}
	tk.Stop() // a stale ticker stops quietly
	e.Run()
	if fired != 0 || e.Now() != 500*time.Millisecond {
		t.Fatalf("after CancelAll: %d fired, clock %v", fired, e.Now())
	}
	e.Schedule(time.Second, func() { fired++ })
	e.Run()
	if fired != 1 || e.Now() != 1500*time.Millisecond || len(e.nodes) != 4 {
		t.Fatalf("rescheduled: %d fired at %v over %d nodes, want 1 at 1.5s reusing the 4", fired, e.Now(), len(e.nodes))
	}
}

func TestFluidSingleConsumer(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("link", 100) // 100 units/s
	done := time.Duration(-1)
	s.Add(&FluidConsumer{Name: "f", Weight: 1, OnDone: func() { done = e.Now() }}, 500, r)
	e.Run()
	if want := 5 * time.Second; done != want {
		t.Errorf("completion at %v, want %v", done, want)
	}
}

func TestFluidEqualSharing(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("cpu", 100)
	var d1, d2 time.Duration
	s.Add(&FluidConsumer{Name: "a", Weight: 1, OnDone: func() { d1 = e.Now() }}, 500, r)
	s.Add(&FluidConsumer{Name: "b", Weight: 1, OnDone: func() { d2 = e.Now() }}, 500, r)
	e.Run()
	// Each gets 50/s while both active: both finish at 10s.
	if d1 != 10*time.Second || d2 != 10*time.Second {
		t.Errorf("completions %v %v, want 10s both", d1, d2)
	}
}

func TestFluidWeightedSharing(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("cpu", 100)
	var dh, dl time.Duration
	// Weight 3 vs 1: heavy gets 75/s, light 25/s while both run.
	s.Add(&FluidConsumer{Name: "heavy", Weight: 3, OnDone: func() { dh = e.Now() }}, 300, r)
	s.Add(&FluidConsumer{Name: "light", Weight: 1, OnDone: func() { dl = e.Now() }}, 300, r)
	e.Run()
	if dh != 4*time.Second {
		t.Errorf("heavy done at %v, want 4s", dh)
	}
	// Light: 25*4=100 done by t=4, then 200 remaining at 100/s → t=6.
	if dl != 6*time.Second {
		t.Errorf("light done at %v, want 6s", dl)
	}
}

func TestFluidRateLimit(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("link", 100)
	var dCapped, dFree time.Duration
	s.Add(&FluidConsumer{Name: "capped", Weight: 1, Limit: 10, OnDone: func() { dCapped = e.Now() }}, 100, r)
	s.Add(&FluidConsumer{Name: "free", Weight: 1, OnDone: func() { dFree = e.Now() }}, 450, r)
	e.Run()
	// Capped takes 10/s → done at 10s; free gets the other 90/s → 5s.
	if dFree != 5*time.Second {
		t.Errorf("free done at %v, want 5s", dFree)
	}
	if dCapped != 10*time.Second {
		t.Errorf("capped done at %v, want 10s", dCapped)
	}
}

func TestFluidMultiResourceBottleneck(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	up := s.NewResource("up", 100)
	down := s.NewResource("down", 10)
	var done time.Duration
	s.Add(&FluidConsumer{Name: "f", Weight: 1, OnDone: func() { done = e.Now() }}, 100, up, down)
	e.Run()
	if done != 10*time.Second {
		t.Errorf("done at %v, want 10s (bottleneck=10/s)", done)
	}
}

func TestFluidRemove(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("cpu", 100)
	fired := false
	c := s.Add(&FluidConsumer{Name: "x", Weight: 1, OnDone: func() { fired = true }}, 1000, r)
	e.Schedule(time.Second, func() { s.Remove(c) })
	e.Run()
	if fired {
		t.Error("OnDone fired after Remove")
	}
	if got := c.Remaining(); got < 899 || got > 901 {
		t.Errorf("Remaining = %v, want ~900", got)
	}
	if s.liveN != 0 {
		t.Errorf("Len = %d, want 0", s.liveN)
	}
}

func TestFluidCapacityChange(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("link", 100)
	var done time.Duration
	s.Add(&FluidConsumer{Name: "f", Weight: 1, OnDone: func() { done = e.Now() }}, 1000, r)
	e.Schedule(5*time.Second, func() { r.SetCapacity(50) })
	e.Run()
	// 500 done in first 5s, remaining 500 at 50/s → +10s = 15s.
	if done != 15*time.Second {
		t.Errorf("done at %v, want 15s", done)
	}
}

func TestFluidDepartureSpeedsUpSurvivor(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("link", 100)
	var dShort, dLong time.Duration
	s.Add(&FluidConsumer{Name: "short", Weight: 1, OnDone: func() { dShort = e.Now() }}, 100, r)
	s.Add(&FluidConsumer{Name: "long", Weight: 1, OnDone: func() { dLong = e.Now() }}, 300, r)
	e.Run()
	// Both at 50/s. short done at 2s (100 units). long has 200 left, now
	// at 100/s → done at 4s.
	if dShort != 2*time.Second {
		t.Errorf("short done at %v, want 2s", dShort)
	}
	if dLong != 4*time.Second {
		t.Errorf("long done at %v, want 4s", dLong)
	}
}

func TestFluidZeroWork(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("link", 100)
	fired := false
	s.Add(&FluidConsumer{Name: "z", Weight: 1, OnDone: func() { fired = true }}, 0, r)
	e.Run()
	if !fired {
		t.Error("zero-work consumer never completed")
	}
}

func TestFluidPanicsOnBadConsumer(t *testing.T) {
	e := NewEngine(1)
	s := NewFluidSystem(e)
	r := s.NewResource("link", 100)
	for name, fn := range map[string]func(){
		"zero weight":   func() { s.Add(&FluidConsumer{Weight: 0}, 10, r) },
		"negative work": func() { s.Add(&FluidConsumer{Weight: 1}, -1, r) },
		"no constraint": func() { s.Add(&FluidConsumer{Weight: 1}, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFluidManyConsumersDeterministic(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(7)
		s := NewFluidSystem(e)
		r := s.NewResource("link", 1000)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			w := float64(1 + i%3)
			work := float64(100 + 37*i)
			s.Add(&FluidConsumer{Name: "c", Weight: w, OnDone: func() {
				out = append(out, e.Now())
			}}, work, r)
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("completions %d/%d, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fluid system nondeterministic across identical runs")
		}
	}
}

// Property: events fire in exactly (time, insertion) order for arbitrary
// schedules, including cancellations.
func TestEventOrderingProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := NewEngine(1)
		type rec struct {
			at  time.Duration
			seq int
		}
		var want []rec
		var got []rec
		seq := 0
		for i := 0; i+1 < len(raw) && i < 60; i += 2 {
			at := time.Duration(raw[i]) * time.Millisecond
			cancel := raw[i+1]%5 == 0
			s := seq
			seq++
			ev := e.At(at, func() { got = append(got, rec{at, s}) })
			if cancel {
				e.Cancel(ev)
			} else {
				want = append(want, rec{at, s})
			}
		}
		// Expected order: stable sort by time (insertion order preserved
		// within equal times, which `want` already has).
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
