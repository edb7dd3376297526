package gram

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rsl"
	"repro/internal/sim"
)

// mkStream builds a deterministic job stream from fuzz bytes: each byte
// pair encodes (count, runtime); wall = 2×run, except that every third
// runtime byte asks for the largest wall rsl admits (within a second of
// 2⁶³ ns), so the scheduler's time arithmetic runs at its upper edge.
func mkStream(t testing.TB, raw []uint8, slots int) []*Job {
	t.Helper()
	var jobs []*Job
	for i := 0; i+1 < len(raw); i += 2 {
		count := int(raw[i])%slots + 1
		run := time.Duration(int(raw[i+1])%120+1) * time.Minute
		wall := int(run.Seconds() * 2)
		if raw[i+1]%3 == 0 {
			wall = 9223372036
		}
		src := fmt.Sprintf(`&(executable=x)(count=%d)(maxWallTime=%d)`, count, wall)
		spec, err := rsl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := spec.Single()
		jobs = append(jobs, &Job{
			ID:   fmt.Sprintf("j%d", i/2),
			Req:  req,
			Spec: JobSpec{RSL: src, ActualRun: run},
		})
	}
	return jobs
}

// TestBatchNeverOversubscribesProperty checks the core invariant: at no
// instant does the sum of running jobs' slot counts exceed the machine
// size, for arbitrary job streams, with and without backfill.
func TestBatchNeverOversubscribesProperty(t *testing.T) {
	const slots = 8
	f := func(raw []uint8, disableBackfill bool) bool {
		eng := sim.NewEngine(3)
		m := NewBatchManager(eng, "batch", slots)
		m.DisableBackfill = disableBackfill
		jobs := mkStream(t, raw, slots)

		inUse := 0
		peakOK := true
		for _, j := range jobs {
			j := j
			j.OnState = func(_ *Job, s JobState) {
				switch s {
				case Active:
					inUse += j.Count()
					if inUse > slots {
						peakOK = false
					}
				case Done, Failed, Cancelled:
					if j.Started != 0 || j.State() == Done {
						inUse -= j.Count()
					}
				}
			}
		}
		// Stagger arrivals 1 minute apart.
		for i, j := range jobs {
			j := j
			eng.At(time.Duration(i)*time.Minute, func() { m.Submit(j) })
		}
		eng.Run()
		// Every job reached a terminal state.
		for _, j := range jobs {
			if !j.State().Terminal() {
				return false
			}
		}
		return peakOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBackfillOnlyWhenEarlierJobsBlockedProperty checks the guarantee
// EASY actually makes (it is *not* pointwise FCFS domination — backfill
// may delay non-head jobs): a job starts out of arrival order only when
// every earlier-arrived job still pending at that instant could not have
// started in the slots that were free. Combined with the no-starvation
// check, this is the EASY contract.
func TestBackfillOnlyWhenEarlierJobsBlockedProperty(t *testing.T) {
	const slots = 8
	f := func(raw []uint8) bool {
		eng := sim.NewEngine(3)
		m := NewBatchManager(eng, "batch", slots)
		jobs := mkStream(t, raw, slots)
		if len(jobs) == 0 {
			return true
		}
		order := make(map[*Job]int, len(jobs))
		pending := make(map[*Job]bool)
		inUse := 0
		ok := true
		for i, j := range jobs {
			order[j] = i
			j := j
			j.OnState = func(_ *Job, s JobState) {
				switch s {
				case Pending:
					pending[j] = true
				case Active:
					delete(pending, j)
					freeBefore := slots - inUse
					// The queue head (earliest pending arrival) is the one
					// EASY protects: if it fit in the free slots, nothing
					// may jump it. Non-head jobs can legitimately be
					// skipped when starting them would delay the head.
					var head *Job
					for h := range pending {
						if head == nil || order[h] < order[head] {
							head = h
						}
					}
					if head != nil && order[head] < order[j] && head.Count() <= freeBefore {
						ok = false // jumped over a startable head
					}
					inUse += j.Count()
				case Done, Failed, Cancelled:
					delete(pending, j)
					if j.Started != 0 {
						inUse -= j.Count()
					}
				}
			}
		}
		for i, j := range jobs {
			j := j
			eng.At(time.Duration(i)*time.Minute, func() { m.Submit(j) })
		}
		eng.Run()
		// No starvation: every job terminated.
		for _, j := range jobs {
			if !j.State().Terminal() {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBatchDeterministicAcrossRuns re-runs an identical stream and
// expects identical schedules.
func TestBatchDeterministicAcrossRuns(t *testing.T) {
	raw := []uint8{3, 40, 7, 10, 1, 90, 8, 5, 2, 61, 4, 33}
	run := func() []time.Duration {
		eng := sim.NewEngine(3)
		m := NewBatchManager(eng, "batch", 8)
		jobs := mkStream(t, raw, 8)
		for i, j := range jobs {
			j := j
			eng.At(time.Duration(i)*time.Minute, func() { m.Submit(j) })
		}
		eng.Run()
		var out []time.Duration
		for _, j := range jobs {
			out = append(out, j.Started, j.Ended)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
