// Package gram implements the Globus Resource Allocation Manager: the
// per-site gatekeeper that authenticates requests via GSI, authorizes them
// through the site gridmap, and hands jobs to local-scheduler job
// managers. Two job managers model the paper's local-resource spectrum: a
// fork manager (immediate best-effort execution, contending on the node's
// CPU) and a batch manager (FCFS queue with EASY backfill and *advance
// reservations* — the paper's midnight-reservation example: "discover a
// node that supports reservations, query for available timeslots, make a
// reservation, claim the reservation each day, and bind it to the
// application").
//
// The dialect layer models the heterogeneity "glue" GT must provide
// ("GT provides, in effect, a set of unifying interfaces through which
// local resource management functionality can be discovered and used"),
// which experiment E7 quantifies against PlanetLab's uniform node
// interface.
package gram

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rsl"
)

// Job lifecycle errors.
var (
	ErrUnknownJob      = errors.New("gram: unknown job")
	ErrBadState        = errors.New("gram: invalid state transition")
	ErrQueueFull       = errors.New("gram: queue full")
	ErrNoReservation   = errors.New("gram: unknown or unusable reservation")
	ErrInfeasible      = errors.New("gram: reservation window infeasible")
	ErrTooManySlots    = errors.New("gram: request exceeds machine size")
	ErrNoSuchManager   = errors.New("gram: no such job manager")
	ErrWallTimeMissing = errors.New("gram: maxWallTime required by batch manager")
)

// JobState is the GRAM job state machine (GT2 vocabulary, condensed).
type JobState int

// The job states.
const (
	Unsubmitted JobState = iota
	Pending              // accepted, waiting for resources
	Active               // running
	Done                 // finished successfully
	Failed
	Cancelled
)

var jobStateNames = [...]string{"unsubmitted", "pending", "active", "done", "failed", "cancelled"}

func (s JobState) String() string {
	if int(s) < len(jobStateNames) {
		return jobStateNames[s]
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Terminal reports whether no further transitions can occur.
func (s JobState) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// JobSpec is what a client submits: the RSL description plus the job's
// true runtime (known to the workload generator, not to the scheduler,
// which sees only maxWallTime).
type JobSpec struct {
	RSL string
	// ActualRun is the job's true execution time at full allocation; the
	// batch manager bills wall-clock, the fork manager core-seconds.
	ActualRun time.Duration
	// Owner is the authenticated grid subject (filled by the gatekeeper).
	Owner string
	// LocalAccount is the gridmap-resolved account (filled by gatekeeper).
	LocalAccount string
}

// Transition is one step of a job's recorded lifecycle.
type Transition struct {
	To JobState
	At time.Duration
}

// Job is one unit of managed work.
type Job struct {
	ID    string
	Spec  JobSpec
	Req   rsl.Request
	state JobState

	Submitted time.Duration
	Started   time.Duration
	Ended     time.Duration

	// History records every state transition with its virtual time —
	// the audit trail that lets sites "associate resource usage with
	// specific individuals" (§4.2.1). Times are filled by the managers
	// via the Submitted/Started/Ended fields; History keeps the order.
	History []Transition

	// FailReason records why the job failed.
	FailReason error

	// OnState, when set, observes every transition.
	OnState func(*Job, JobState)
}

// State returns the current job state.
func (j *Job) State() JobState { return j.state }

func (j *Job) transition(to JobState) {
	j.state = to
	at := j.Submitted
	switch to {
	case Active:
		at = j.Started
	case Done, Failed, Cancelled:
		at = j.Ended
	}
	j.History = append(j.History, Transition{To: to, At: at})
	if j.OnState != nil {
		j.OnState(j, to)
	}
}

// ChargedCoreSeconds returns the usage to bill the job's owner: slots ×
// wall-clock occupancy for completed or killed work, zero before then.
func (j *Job) ChargedCoreSeconds() float64 {
	if j.Ended <= j.Started || j.Started == 0 {
		return 0
	}
	return float64(j.Count()) * (j.Ended - j.Started).Seconds()
}

// WaitTime returns queue delay (valid once Active or later).
func (j *Job) WaitTime() time.Duration { return j.Started - j.Submitted }

// Count returns the requested slot count (default 1).
func (j *Job) Count() int { return j.Req.IntDefault("count", 1) }

// MaxWall returns the declared wall-time limit in seconds, or an error
// when it is absent (ErrWallTimeMissing) or not a duration (rsl.ErrType,
// or rsl.ErrRange for a negative, non-finite or unrepresentable one).
func (j *Job) MaxWall() (time.Duration, error) {
	d, err := j.Req.Seconds("maxWallTime")
	switch {
	case errors.Is(err, rsl.ErrMissing):
		return 0, ErrWallTimeMissing
	case err != nil:
		return 0, fmt.Errorf("gram: %w", err)
	}
	return d, nil
}

// Manager is a local-scheduler adapter: GRAM's uniform interface over
// heterogeneous local resource managers.
type Manager interface {
	// Name identifies the manager (e.g. "fork", "batch").
	Name() string
	// Submit accepts a job; the manager drives its state machine.
	Submit(j *Job) error
	// Cancel stops a pending or active job.
	Cancel(j *Job) error
}
