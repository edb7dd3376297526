package sim

import (
	"fmt"
	"testing"
	"time"
)

// record runs a fixed little workload and returns its observable log:
// fired events with times plus rng draws, enough to expose clock, heap
// order, and rng divergence.
type recorder struct {
	eng *Engine
	log []string
}

func (r *recorder) emit(tag string) {
	r.log = append(r.log, fmt.Sprintf("%v %s", r.eng.Now(), tag))
}

func (r *recorder) draw(tag string) {
	r.log = append(r.log, fmt.Sprintf("%v %s rng=%d", r.eng.Now(), tag, r.eng.rng.Intn(1_000_000)))
}

// TestForkRewindsKernelState proves a forked run replays exactly: clock,
// event order, rng stream, and pending events all rewind.
func TestForkRewindsKernelState(t *testing.T) {
	e := NewEngine(7)
	r := &recorder{eng: e}
	e.SnapRoot("recorder", r)

	var tick func(n int)
	tick = func(n int) {
		r.draw(fmt.Sprintf("tick%d", n))
		if n < 6 {
			e.Schedule(time.Duration(1+n)*time.Second, func() { tick(n + 1) })
		}
	}
	e.Schedule(time.Second, func() { tick(0) })
	e.RunUntil(3 * time.Second) // ticks 0,1 fired, tick2 pending

	snap := e.Snapshot()
	e.Run()
	first := append([]string(nil), r.log...)

	snap.Fork()
	if e.Now() != 3*time.Second {
		t.Fatalf("fork rewound clock to %v, want 3s", e.Now())
	}
	e.Run()
	second := r.log

	if len(first) != len(second) {
		t.Fatalf("forked run length %d, cold %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("forked run diverged at %d: %q vs %q", i, second[i], first[i])
		}
	}
}

// TestForkRepeatedly proves one snapshot supports many forks, each
// replaying identically.
func TestForkRepeatedly(t *testing.T) {
	e := NewEngine(3)
	r := &recorder{eng: e}
	e.SnapRoot("recorder", r)
	tk := e.NewTicker(time.Second, func() { r.draw("tick") })
	defer tk.Stop()
	e.RunUntil(2 * time.Second)
	snap := e.Snapshot()

	var runs [][]string
	for i := 0; i < 3; i++ {
		snap.Fork()
		e.RunUntil(10 * time.Second)
		runs = append(runs, append([]string(nil), r.log...))
	}
	for i := 1; i < len(runs); i++ {
		if fmt.Sprint(runs[i]) != fmt.Sprint(runs[0]) {
			t.Fatalf("fork %d diverged:\n%v\nvs\n%v", i, runs[i], runs[0])
		}
	}
}

// TestSnapshotPurity proves taking a snapshot (and never forking it) has
// zero behavioural cost: the continued run is identical to a run that
// never snapshotted.
func TestSnapshotPurity(t *testing.T) {
	run := func(snapshotAt2s bool) []string {
		e := NewEngine(11)
		r := &recorder{eng: e}
		e.SnapRoot("recorder", r)
		tk := e.NewTicker(700*time.Millisecond, func() { r.draw("tick") })
		defer tk.Stop()
		e.RunUntil(2 * time.Second)
		if snapshotAt2s {
			_ = e.Snapshot()
		}
		e.RunUntil(6 * time.Second)
		return r.log
	}
	plain, snapped := run(false), run(true)
	if fmt.Sprint(plain) != fmt.Sprint(snapped) {
		t.Fatalf("snapshot perturbed the run:\n%v\nvs\n%v", snapped, plain)
	}
}

// TestStaleHandlesAcrossForks is the handle-reuse regression table: after
// free-list recycling, a handle from one timeline must be a permanent
// no-op in every other timeline — cancelling it neither fires nor kills
// whatever now occupies its node slot.
func TestStaleHandlesAcrossForks(t *testing.T) {
	cases := []struct {
		name string
		// mint returns the handle to attack with, given the engine and a
		// snapshot point; the returned handle belongs to the PARENT
		// timeline (minted before or after the snapshot as the case
		// dictates).
		run func(t *testing.T)
	}{
		{"parent-handle-cancelled-in-child", func(t *testing.T) {
			e := NewEngine(1)
			fired := &struct{ n int }{}
			e.SnapRoot("fired", fired)
			snap := e.Snapshot()
			// Parent timeline: mint a handle, let the node recycle.
			parentEv := e.Schedule(time.Second, func() { fired.n++ })
			e.Run()
			if fired.n != 1 {
				t.Fatalf("parent event did not fire")
			}
			// Child timeline: the same node index gets reused for a new
			// event. Cancelling the parent handle must not touch it.
			snap.Fork()
			childFired := false
			e.Schedule(time.Second, func() { childFired = true })
			e.Cancel(parentEv)
			if parentEv.cancelled() {
				t.Fatalf("stale parent handle reports cancelled")
			}
			e.Run()
			if !childFired {
				t.Fatalf("cancelling a stale parent handle killed the child's event")
			}
		}},
		{"child-handle-cancelled-after-refork", func(t *testing.T) {
			e := NewEngine(2)
			marker := &struct{ n int }{}
			e.SnapRoot("marker", marker)
			snap := e.Snapshot()
			// Timeline 1: mint and abandon a pending handle.
			t1Ev := e.Schedule(time.Minute, func() { marker.n = 100 })
			// Timeline 2: same node index hosts a different event; the
			// timeline-1 handle must be inert both for Cancel and state.
			snap.Fork()
			ok := false
			e.Schedule(time.Second, func() { ok = true })
			e.Cancel(t1Ev)
			if t1Ev.cancelled() {
				t.Fatalf("abandoned-timeline handle reports cancelled")
			}
			e.Run()
			if !ok || marker.n != 0 {
				t.Fatalf("stale handle perturbed the new timeline (ok=%v marker=%d)", ok, marker.n)
			}
		}},
		{"presnapshot-handle-live-again-after-fork", func(t *testing.T) {
			e := NewEngine(3)
			n := &struct{ fired int }{}
			e.SnapRoot("n", n)
			ev := e.Schedule(time.Minute, func() { n.fired++ })
			snap := e.Snapshot()
			e.Run()
			if n.fired != 1 {
				t.Fatalf("event did not fire in parent")
			}
			snap.Fork()
			// The handle was pending at capture time, so it is pending
			// again — and cancellable — in the child.
			e.Cancel(ev)
			e.Run()
			if n.fired != 0 {
				t.Fatalf("restored pending event survived cancellation (fired=%d)", n.fired)
			}
		}},
		{"handle-beyond-restored-nodes", func(t *testing.T) {
			e := NewEngine(4)
			snap := e.Snapshot() // zero nodes captured
			var evs []Event
			for i := 0; i < 64; i++ {
				evs = append(evs, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
			}
			snap.Fork() // nodes slice rewound to empty
			for _, ev := range evs {
				// Must not panic on out-of-range node indexes, and must be
				// inert.
				if ev.cancelled() {
					t.Fatalf("stale handle beyond restored nodes reports cancelled")
				}
				e.Cancel(ev)
			}
			if got := e.Pending(); got != 0 {
				t.Fatalf("pending = %d after rewind, want 0", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}

// TestForkRestoresFluidState proves mid-transfer fluid consumers rewind:
// remaining work, rates, and completion events all replay.
func TestForkRestoresFluidState(t *testing.T) {
	e := NewEngine(5)
	sys := NewFluidSystem(e)
	res := sys.NewResource("link", 100) // 100 units/s
	done := &struct{ log []string }{}
	e.SnapRoot("done", done)
	e.SnapRoot("sys", sys)

	c1 := &FluidConsumer{Name: "a", Weight: 1, OnDone: func() { done.log = append(done.log, fmt.Sprintf("a@%v", e.Now())) }}
	sys.Add(c1, 1000, res) // 10s alone
	e.RunUntil(2 * time.Second)

	snap := e.Snapshot()
	run := func() []string {
		c2 := &FluidConsumer{Name: "b", Weight: 1, OnDone: func() { done.log = append(done.log, fmt.Sprintf("b@%v", e.Now())) }}
		sys.Add(c2, 400, res)
		e.RunUntil(30 * time.Second)
		return append([]string(nil), done.log...)
	}
	first := run()
	snap.Fork()
	second := run()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("fluid state diverged after fork:\n%v\nvs\n%v", second, first)
	}
	if len(first) != 2 {
		t.Fatalf("expected both consumers to finish, got %v", first)
	}
}

// TestForkPreservesGenerationMonotonicity: generations minted after a
// fork must exceed every generation the abandoned timeline minted.
func TestForkPreservesGenerationMonotonicity(t *testing.T) {
	e := NewEngine(8)
	snap := e.Snapshot()
	for i := 0; i < 1000; i++ {
		e.Schedule(0, func() {})
	}
	e.Run()
	gen := e.genCounter
	snap.Fork()
	if e.genCounter < gen {
		t.Fatalf("fork rewound the generation counter: %d < %d", e.genCounter, gen)
	}
}
