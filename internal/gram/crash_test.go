package gram

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCrashFailsQueuedAndRunningJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	running := mkJob(t, "j1", `&(executable=a)(count=4)(maxWallTime=100)`, 80*time.Second)
	queued := mkJob(t, "j2", `&(executable=b)(count=4)(maxWallTime=100)`, 30*time.Second)
	if err := m.Submit(running); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(queued); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)

	boom := errors.New("head node died")
	m.Crash(boom)
	if running.State() != Failed || queued.State() != Failed {
		t.Fatalf("states after crash: %v %v", running.State(), queued.State())
	}
	if !errors.Is(running.FailReason, boom) || !errors.Is(queued.FailReason, boom) {
		t.Errorf("fail reasons: %v / %v", running.FailReason, queued.FailReason)
	}
	if running.Ended != 10*time.Second {
		t.Errorf("running job ended at %v", running.Ended)
	}
	if len(m.queue) != 0 || len(m.running) != 0 {
		t.Errorf("queue=%d running=%d after crash", len(m.queue), len(m.running))
	}
	if m.CrashN != 1 {
		t.Errorf("CrashN = %d", m.CrashN)
	}

	// The stale completion event for the crashed running job is a no-op.
	eng.Run()
	if running.State() != Failed {
		t.Errorf("crashed job resurrected to %v", running.State())
	}
}

// TestCrashFailsRunningJobsInIDOrder: a crash fails the running jobs in
// job-ID order, whatever order the manager holds them in, so the Failed
// transitions and span ends it emits are deterministic.
func TestCrashFailsRunningJobsInIDOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 16)
	var failed, want []string
	for _, id := range []string{"j7", "j12", "j3", "j10", "j1", "j15", "j5", "j9", "j2", "j14", "j11", "j4"} {
		j := mkJob(t, id, `&(executable=a)(count=1)(maxWallTime=100)`, 80*time.Second)
		j.OnState = func(j *Job, s JobState) {
			if s == Failed {
				failed = append(failed, j.ID)
			}
		}
		if err := m.Submit(j); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	eng.RunUntil(10 * time.Second)
	if len(m.running) != len(want) {
		t.Fatalf("%d of %d jobs running before the crash", len(m.running), len(want))
	}
	m.Crash(errors.New("head node died"))
	sort.Strings(want)
	if !slices.Equal(failed, want) {
		t.Errorf("crash failed the running jobs in order %v, want %v", failed, want)
	}
}

func TestCrashDropsReservationsButManagerRecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewBatchManager(eng, "batch", 4)
	id, err := m.Reserve(100*time.Second, 50*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Crash(errors.New("power cut"))
	if err := m.CancelReservation(id); !errors.Is(err, ErrNoReservation) {
		t.Errorf("reservation survived crash: %v", err)
	}
	// The site comes back: new submissions run normally.
	j := mkJob(t, "j3", `&(executable=c)(count=1)(maxWallTime=60)`, 20*time.Second)
	if err := m.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State() != Done {
		t.Errorf("post-recovery job = %v", j.State())
	}
}

// jobsRef is the list the deleted Gatekeeper.Jobs built per call: every
// accepted job, sorted by ID.
func jobsRef(jobs []*Job) []*Job {
	out := append([]*Job(nil), jobs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func TestGatekeeperJobsSorted(t *testing.T) {
	// EachJob must visit the jobs in the order the old sorted copy had,
	// whatever order they arrived in. IDs sort as strings: "gk/10" comes
	// before "gk/9".
	var g Gatekeeper
	var added []*Job
	for _, id := range []string{"gk/9", "gk/10", "gk/1", "gk/11", "gk/2", "gk/100"} {
		j := &Job{ID: id}
		g.addJob(j)
		added = append(added, j)
		var got []*Job
		g.EachJob(func(j *Job) { got = append(got, j) })
		if want := jobsRef(added); !slices.Equal(got, want) {
			t.Fatalf("after %s: EachJob = %v, want %v", id, jobIDs(got), jobIDs(want))
		}
		if g.Job(id) != j {
			t.Errorf("Job(%q) = %v", id, g.Job(id))
		}
	}
	if g.Job("gk/3") != nil {
		t.Error("Job found an ID never accepted")
	}
}

func jobIDs(jobs []*Job) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}
