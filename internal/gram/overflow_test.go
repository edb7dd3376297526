package gram

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// hugeWall is the largest maxWallTime rsl.Request.Seconds admits in whole
// seconds: within a second of 2⁶³ ns, so now+wall wraps for any now >= 1s.
const hugeWall = `(maxWallTime=9223372036)`

// TestHugeWallStillHoldsItsSlots: a job whose wall limit cannot end
// before the last representable instant holds its slots until then — a
// wrapped, negative commitment end would read as already over and let a
// second full-machine job start beside it.
func TestHugeWallStillHoldsItsSlots(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	j1 := mkJob(t, "j1", `&(executable=a)(count=4)`+hugeWall, time.Hour)
	j2 := mkJob(t, "j2", `&(executable=b)(count=4)(maxWallTime=100)`, 10*time.Second)
	eng.At(2*time.Second, func() {
		if err := m.Submit(j1); err != nil {
			t.Error(err)
		}
		if err := m.Submit(j2); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(3 * time.Second)
	if j1.State() != Active || j2.State() != Pending || m.RunningN() != 1 {
		t.Fatalf("j1=%v j2=%v running=%d: 8 slots claimed on a 4-slot machine",
			j1.State(), j2.State(), m.RunningN())
	}
	eng.RunUntil(2 * time.Hour)
	if j1.State() != Done || j2.State() != Done || j2.Started != j1.Ended {
		t.Errorf("j1=%v j2=%v j2.Started=%v j1.Ended=%v", j1.State(), j2.State(), j2.Started, j1.Ended)
	}
}

// TestHugeWallKillSchedulesInRange: the same wall on a job that would
// outrun it must arm its wall kill at a representable instant, not hand
// the engine a wrapped one (it panics on a schedule before now).
func TestHugeWallKillSchedulesInRange(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	j := mkJob(t, "j", `&(executable=a)(count=4)`+hugeWall, time.Duration(math.MaxInt64))
	eng.At(30*time.Second, func() {
		if err := m.Submit(j); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(time.Hour)
	if j.State() != Active || m.RunningN() != 1 {
		t.Fatalf("state=%v running=%d", j.State(), m.RunningN())
	}
}

// TestHugeWallRespectsReservation: the feasibility window of a huge-wall
// job reaches the end of time, so it must see a reservation that opens
// later and wait behind it rather than start across it.
func TestHugeWallRespectsReservation(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	if _, err := m.Reserve(100*time.Second, 100*time.Second, 4); err != nil {
		t.Fatal(err)
	}
	j := mkJob(t, "j", `&(executable=a)(count=4)`+hugeWall, time.Minute)
	eng.At(2*time.Second, func() {
		if err := m.Submit(j); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(150 * time.Second)
	if j.State() != Pending {
		t.Fatalf("state=%v at %v: started across the [100s,200s) reservation", j.State(), eng.Now())
	}
	eng.RunUntil(10 * time.Minute)
	if j.State() != Done || j.Started != 200*time.Second {
		t.Errorf("state=%v started=%v, want Done from 200s", j.State(), j.Started)
	}
}
