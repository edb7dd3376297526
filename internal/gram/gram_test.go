package gram

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/rsl"
	"repro/internal/silk"
	"repro/internal/sim"
)

func mkJob(t *testing.T, id, src string, actual time.Duration) *Job {
	t.Helper()
	spec, err := rsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	req, err := spec.Single()
	if err != nil {
		t.Fatal(err)
	}
	return &Job{ID: id, Req: req, Spec: JobSpec{RSL: src, ActualRun: actual}}
}

func TestBatchFCFSAndCompletion(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	j1 := mkJob(t, "j1", `&(executable=a)(count=4)(maxWallTime=100)`, 50*time.Second)
	j2 := mkJob(t, "j2", `&(executable=b)(count=4)(maxWallTime=100)`, 30*time.Second)
	if err := m.Submit(j1); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(j2); err != nil {
		t.Fatal(err)
	}
	if j1.State() != Active || j2.State() != Pending {
		t.Fatalf("states = %v %v", j1.State(), j2.State())
	}
	eng.Run()
	if j1.State() != Done || j2.State() != Done {
		t.Fatalf("final = %v %v", j1.State(), j2.State())
	}
	// j1 runs [0,50), j2 [50,80).
	if j1.Ended != 50*time.Second || j2.Started != 50*time.Second || j2.Ended != 80*time.Second {
		t.Errorf("times: j1end=%v j2start=%v j2end=%v", j1.Ended, j2.Started, j2.Ended)
	}
	if j2.WaitTime() != 50*time.Second {
		t.Errorf("j2 wait = %v", j2.WaitTime())
	}
	if m.CompletedN != 2 {
		t.Errorf("CompletedN = %d", m.CompletedN)
	}
}

func TestBatchEASYBackfill(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	// j1 takes all 4 slots for 100s. j2 (head-blocked) wants 4. j3 wants
	// 2 slots for 50s — it fits entirely before j2's shadow time, so EASY
	// must backfill it... but j1 holds all 4 slots, so j3 cannot run now.
	// Use j1 with 2 slots instead: j2 wants 4 (blocked until j1 ends at
	// 100), j3 wants 2 for <=100s and backfills immediately.
	j1 := mkJob(t, "j1", `&(executable=a)(count=2)(maxWallTime=100)`, 100*time.Second)
	j2 := mkJob(t, "j2", `&(executable=b)(count=4)(maxWallTime=100)`, 10*time.Second)
	j3 := mkJob(t, "j3", `&(executable=c)(count=2)(maxWallTime=100)`, 40*time.Second)
	m.Submit(j1)
	m.Submit(j2)
	m.Submit(j3)
	if j3.State() != Active {
		t.Fatalf("j3 not backfilled: %v", j3.State())
	}
	if j2.State() != Pending {
		t.Fatalf("j2 jumped the queue: %v", j2.State())
	}
	eng.Run()
	if m.BackfilledN != 1 {
		t.Errorf("BackfilledN = %d", m.BackfilledN)
	}
	// j2 starts when j1's estimate expires at 100s.
	if j2.Started != 100*time.Second {
		t.Errorf("j2 started at %v, want 100s", j2.Started)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	// j1: 2 slots until t=100. Head j2: 4 slots (shadow t=100).
	// j3: 2 slots, wall 200s — starting it now would push j2 past its
	// shadow, so EASY must NOT backfill it.
	j1 := mkJob(t, "j1", `&(executable=a)(count=2)(maxWallTime=100)`, 100*time.Second)
	j2 := mkJob(t, "j2", `&(executable=b)(count=4)(maxWallTime=50)`, 10*time.Second)
	j3 := mkJob(t, "j3", `&(executable=c)(count=2)(maxWallTime=200)`, 10*time.Second)
	m.Submit(j1)
	m.Submit(j2)
	m.Submit(j3)
	if j3.State() == Active {
		t.Fatal("j3 backfilled despite delaying head")
	}
	eng.Run()
	if j2.Started != 100*time.Second {
		t.Errorf("head delayed: started %v", j2.Started)
	}
}

func TestBatchEarlyFinishPullsQueueForward(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	// j1 estimates 100s but actually runs 20s; j2 should start at 20s.
	j1 := mkJob(t, "j1", `&(executable=a)(count=4)(maxWallTime=100)`, 20*time.Second)
	j2 := mkJob(t, "j2", `&(executable=b)(count=4)(maxWallTime=10)`, 5*time.Second)
	m.Submit(j1)
	m.Submit(j2)
	eng.Run()
	if j2.Started != 20*time.Second {
		t.Errorf("j2 started %v, want 20s", j2.Started)
	}
}

func TestBatchWallTimeKill(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 1)
	j := mkJob(t, "j", `&(executable=a)(maxWallTime=10)`, time.Hour)
	m.Submit(j)
	eng.Run()
	if j.State() != Failed {
		t.Fatalf("state = %v", j.State())
	}
	if j.Ended != 10*time.Second {
		t.Errorf("killed at %v, want 10s", j.Ended)
	}
	if m.WallKillN != 1 {
		t.Errorf("WallKillN = %d", m.WallKillN)
	}
}

func TestBatchRequiresWallTime(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 1)
	j := mkJob(t, "j", `&(executable=a)`, time.Second)
	if err := m.Submit(j); !errors.Is(err, ErrWallTimeMissing) {
		t.Errorf("err = %v", err)
	}
	if j.State() != Failed {
		t.Errorf("state = %v", j.State())
	}
}

func TestBatchTooManySlots(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 2)
	j := mkJob(t, "j", `&(executable=a)(count=3)(maxWallTime=10)`, time.Second)
	if err := m.Submit(j); !errors.Is(err, ErrTooManySlots) {
		t.Errorf("err = %v", err)
	}
}

func TestBatchQueueFull(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 1)
	m.MaxQueue = 1
	m.Submit(mkJob(t, "j1", `&(executable=a)(maxWallTime=100)`, 90*time.Second))
	m.Submit(mkJob(t, "j2", `&(executable=a)(maxWallTime=100)`, 90*time.Second))
	j3 := mkJob(t, "j3", `&(executable=a)(maxWallTime=100)`, 90*time.Second)
	if err := m.Submit(j3); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v", err)
	}
}

func TestBatchCancelQueuedAndRunning(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 1)
	j1 := mkJob(t, "j1", `&(executable=a)(maxWallTime=100)`, 90*time.Second)
	j2 := mkJob(t, "j2", `&(executable=a)(maxWallTime=100)`, 90*time.Second)
	m.Submit(j1)
	m.Submit(j2)
	if err := m.Cancel(j2); err != nil {
		t.Fatal(err)
	}
	if j2.State() != Cancelled {
		t.Errorf("queued cancel: %v", j2.State())
	}
	if err := m.Cancel(j1); err != nil {
		t.Fatal(err)
	}
	if j1.State() != Cancelled {
		t.Errorf("running cancel: %v", j1.State())
	}
	if err := m.Cancel(j1); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("double cancel: %v", err)
	}
	eng.Run()
	if len(m.running) != 0 || len(m.queue) != 0 {
		t.Errorf("leftovers: running=%d queued=%d", len(m.running), len(m.queue))
	}
}

func TestReservationAdmissionAndClaim(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	// The paper's example: one hour starting at midnight. Reserve 2 slots
	// at t=1000s for 3600s.
	id, err := m.Reserve(1000*time.Second, time.Hour, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A second overlapping reservation for 3 slots must be refused (2+3>4).
	if _, err := m.Reserve(1500*time.Second, time.Hour, 3); !errors.Is(err, ErrInfeasible) {
		t.Errorf("overcommitted reservation: %v", err)
	}
	// 2 more slots fit.
	if _, err := m.Reserve(1500*time.Second, time.Hour, 2); err != nil {
		t.Errorf("fitting reservation: %v", err)
	}
	// Claim before the window opens: job waits until t=1000.
	j := mkJob(t, "j", fmt.Sprintf(`&(executable=a)(count=2)(maxWallTime=3600)(reservation=%s)`, id), 30*time.Minute)
	if err := m.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.State() != Pending {
		t.Fatalf("claimed job state = %v", j.State())
	}
	eng.Run()
	if j.Started != 1000*time.Second {
		t.Errorf("claimed job started %v, want 1000s", j.Started)
	}
	if j.State() != Done {
		t.Errorf("state = %v", j.State())
	}
}

func TestReservationBlocksBackfillWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 2)
	// Reserve the whole machine over [100, 200).
	if _, err := m.Reserve(100*time.Second, 100*time.Second, 2); err != nil {
		t.Fatal(err)
	}
	// A 150s-wall job cannot start now (it would overlap the
	// reservation) and must wait until t=200.
	j := mkJob(t, "j", `&(executable=a)(count=2)(maxWallTime=150)`, 10*time.Second)
	m.Submit(j)
	if j.State() == Active {
		t.Fatal("job overlaps reservation")
	}
	// A short job fits before the window.
	short := mkJob(t, "s", `&(executable=a)(count=2)(maxWallTime=50)`, 10*time.Second)
	m.Submit(short)
	if short.State() != Active {
		t.Errorf("short job refused: %v", short.State())
	}
	eng.Run()
	if j.Started != 200*time.Second {
		t.Errorf("blocked job started %v, want 200s", j.Started)
	}
}

func TestReservationErrors(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 2)
	if _, err := m.Reserve(0, time.Hour, 3); !errors.Is(err, ErrTooManySlots) {
		t.Errorf("too big: %v", err)
	}
	eng.RunUntil(10 * time.Second)
	if _, err := m.Reserve(5*time.Second, time.Hour, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("past start: %v", err)
	}
	j := mkJob(t, "j", `&(executable=a)(maxWallTime=10)(reservation=nosuch)`, time.Second)
	if err := m.Submit(j); !errors.Is(err, ErrNoReservation) {
		t.Errorf("bad claim: %v", err)
	}
	// Claim exceeding reservation size.
	id, _ := m.Reserve(20*time.Second, time.Hour, 1)
	big := mkJob(t, "b", fmt.Sprintf(`&(executable=a)(count=2)(maxWallTime=10)(reservation=%s)`, id), time.Second)
	if err := m.Submit(big); !errors.Is(err, ErrNoReservation) {
		t.Errorf("oversized claim: %v", err)
	}
	// Cancel reservation then claim.
	if err := m.CancelReservation(id); err != nil {
		t.Fatal(err)
	}
	if err := m.CancelReservation(id); !errors.Is(err, ErrNoReservation) {
		t.Errorf("double cancel: %v", err)
	}
}

func TestForkManagerContention(t *testing.T) {
	eng := sim.NewEngine(1)
	node := silk.NewNode(eng, "n", silk.NodeSpec{Cores: 1, MaxFDs: 10})
	m, err := NewForkManager(eng, node)
	if err != nil {
		t.Fatal(err)
	}
	j1 := mkJob(t, "j1", `&(executable=a)`, 10*time.Second)
	j2 := mkJob(t, "j2", `&(executable=b)`, 10*time.Second)
	m.Submit(j1)
	m.Submit(j2)
	if j1.State() != Active || j2.State() != Active || len(m.tasks) != 2 {
		t.Fatal("fork jobs not immediately active")
	}
	eng.Run()
	// Both share 1 core: each 10 core-seconds → both done at 20s.
	if j1.Ended != 20*time.Second || j2.Ended != 20*time.Second {
		t.Errorf("ends %v %v, want 20s (best-effort stretch)", j1.Ended, j2.Ended)
	}
}

func TestForkCancel(t *testing.T) {
	eng := sim.NewEngine(1)
	node := silk.NewNode(eng, "n", silk.NodeSpec{Cores: 1, MaxFDs: 10})
	m, _ := NewForkManager(eng, node)
	j := mkJob(t, "j", `&(executable=a)`, time.Hour)
	m.Submit(j)
	if err := m.Cancel(j); err != nil {
		t.Fatal(err)
	}
	if j.State() != Cancelled {
		t.Errorf("state = %v", j.State())
	}
	if err := m.Cancel(j); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("double: %v", err)
	}
	eng.Run()
}

func TestGlueTranslation(t *testing.T) {
	eng := sim.NewEngine(1)
	inner := NewBatchManager(eng, "batch", 4)
	d := StandardDialects(1)[0]
	g := NewGlue(inner, d)
	j := mkJob(t, "j", `&(executable=a)(count=2)(maxWallTime=10)(queue=default)`, time.Second)
	if err := g.Submit(j); err != nil {
		t.Fatal(err)
	}
	// count, maxWallTime, queue each rename twice (out and back) = 6 ops,
	// plus the dialect's required attr synthesis and nil error translation.
	if g.TranslateOps < 6 {
		t.Errorf("TranslateOps = %d, want >= 6", g.TranslateOps)
	}
	eng.Run()
	if j.State() != Done {
		t.Errorf("state = %v", j.State())
	}
	// The canonical attribute still resolves after the round trip.
	if j.Count() != 2 {
		t.Errorf("count after translation = %d", j.Count())
	}
}

func TestGlueErrorFidelity(t *testing.T) {
	eng := sim.NewEngine(1)
	inner := NewBatchManager(eng, "batch", 2)
	d := StandardDialects(1)[0] // knows ErrTooManySlots and ErrQueueFull
	g := NewGlue(inner, d)
	// Translatable error keeps its canonical identity.
	big := mkJob(t, "big", `&(executable=a)(count=5)(maxWallTime=10)`, time.Second)
	if err := g.Submit(big); !errors.Is(err, ErrTooManySlots) {
		t.Errorf("translatable: %v", err)
	}
	if g.OpaqueErrs != 0 {
		t.Errorf("OpaqueErrs = %d", g.OpaqueErrs)
	}
	// Untranslatable error degrades.
	noWall := mkJob(t, "nw", `&(executable=a)`, time.Second)
	if err := g.Submit(noWall); !errors.Is(err, ErrOpaqueLocal) {
		t.Errorf("untranslatable: %v", err)
	}
	if g.OpaqueErrs != 1 {
		t.Errorf("OpaqueErrs = %d", g.OpaqueErrs)
	}
}

func TestCanonicalGluePerfectFidelity(t *testing.T) {
	eng := sim.NewEngine(1)
	inner := NewBatchManager(eng, "batch", 2)
	g := NewGlue(inner, CanonicalDialect)
	noWall := mkJob(t, "nw", `&(executable=a)`, time.Second)
	if err := g.Submit(noWall); !errors.Is(err, ErrWallTimeMissing) {
		t.Errorf("canonical fidelity: %v", err)
	}
	if g.OpaqueErrs != 0 {
		t.Errorf("OpaqueErrs = %d", g.OpaqueErrs)
	}
	// Renames cost nothing under the canonical dialect.
	j := mkJob(t, "j", `&(executable=a)(maxWallTime=10)`, time.Second)
	g.Submit(j)
	if g.TranslateOps > 2 { // error translations only
		t.Errorf("TranslateOps = %d", g.TranslateOps)
	}
}

func TestJobStateString(t *testing.T) {
	if Pending.String() != "pending" || Done.String() != "done" {
		t.Error("state names")
	}
	if !Done.Terminal() || Pending.Terminal() {
		t.Error("Terminal()")
	}
}
