package gram

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BatchManager is a space-shared cluster scheduler: jobs request `count`
// slots for up to `maxWallTime`, queue FCFS, start via EASY backfill, and
// may claim advance reservations. It models "a queuing system supporting
// reservations on a cluster" — the enforcement backend the paper names
// for WS-Agreement on the Globus side.
type BatchManager struct {
	eng   *sim.Engine
	name  string
	Slots int
	// MaxQueue bounds the pending queue (0 = unbounded).
	MaxQueue int
	// DisableBackfill turns EASY backfill off (pure FCFS), for the
	// scheduling ablation.
	DisableBackfill bool

	queue        []*Job
	running      map[*Job]*commitment
	reservations map[string]*Reservation
	resSeq       int
	timer        *sim.Timer

	// Counters for experiment accounting.
	CompletedN, BackfilledN, WallKillN int
	// CrashN counts node crashes injected via Crash.
	CrashN int
	// Jobs accepted by Submit, and jobs moved into each other state.
	submittedN, startedN, failedN, cancelledN int

	// Observability handles (inert when no tracer is installed). jobSpans
	// keeps one open span per in-flight job, from Submit to its terminal
	// transition.
	tr       *obs.Tracer
	jobSpans map[*Job]obs.SpanContext
	hWait    *obs.Hist
}

// commitment is a slot claim over a time interval.
type commitment struct {
	start, end time.Duration
	count      int
}

// endOf returns start+dur saturated at the last representable instant:
// rsl admits walls up to 2⁶³ ns, and a wrapped (negative) end would read
// as a claim that is already over.
func endOf(start, dur time.Duration) time.Duration {
	if dur > math.MaxInt64-start {
		return math.MaxInt64
	}
	return start + dur
}

// Reservation is an admitted advance reservation.
type Reservation struct {
	ID    string
	Start time.Duration
	End   time.Duration
	Count int

	claimed bool
}

// NewBatchManager creates a batch scheduler with the given machine size.
func NewBatchManager(eng *sim.Engine, name string, slots int) *BatchManager {
	if slots <= 0 {
		panic(fmt.Sprintf("gram: batch manager %q needs positive slots, got %d", name, slots))
	}
	m := &BatchManager{
		eng:          eng,
		name:         name,
		Slots:        slots,
		running:      make(map[*Job]*commitment),
		reservations: make(map[string]*Reservation),
	}
	m.timer = eng.NewTimer(m.kick)
	return m
}

// Name implements Manager.
func (m *BatchManager) Name() string { return m.name }

// SetTracer installs an observability tracer. A nil tracer (the default)
// keeps every instrumentation point inert.
func (m *BatchManager) SetTracer(tr *obs.Tracer) {
	m.tr = tr
	if tr != nil {
		m.jobSpans = make(map[*Job]obs.SpanContext)
	}
	tr.CounterFunc("gram.jobs.submitted", func() uint64 { return uint64(m.submittedN) })
	tr.CounterFunc("gram.jobs.started", func() uint64 { return uint64(m.startedN) })
	tr.CounterFunc("gram.jobs.done", func() uint64 { return uint64(m.CompletedN) })
	tr.CounterFunc("gram.jobs.failed", func() uint64 { return uint64(m.failedN) })
	tr.CounterFunc("gram.jobs.cancelled", func() uint64 { return uint64(m.cancelledN) })
	tr.CounterFunc("gram.jobs.backfilled", func() uint64 { return uint64(m.BackfilledN) })
	tr.CounterFunc("gram.jobs.wall_killed", func() uint64 { return uint64(m.WallKillN) })
	tr.CounterFunc("gram.crashes", func() uint64 { return uint64(m.CrashN) })
	m.hWait = tr.Hist("gram.job.wait")
}

// move transitions j to a new state, counting it there.
func (m *BatchManager) move(j *Job, to JobState) {
	switch to {
	case Active:
		m.startedN++
	case Done:
		m.CompletedN++
	case Failed:
		m.failedN++
	case Cancelled:
		m.cancelledN++
	}
	j.transition(to)
}

// jobSpan returns (and removes) the open span for a job reaching a
// terminal state; the zero SpanContext is inert when untraced.
func (m *BatchManager) jobSpan(j *Job) obs.SpanContext {
	s := m.jobSpans[j]
	if m.jobSpans != nil {
		delete(m.jobSpans, j)
	}
	return s
}

// QueueLen returns the number of pending jobs.
func (m *BatchManager) QueueLen() int { return len(m.queue) }

// RunningN returns the number of active jobs.
func (m *BatchManager) RunningN() int { return len(m.running) }

// commitments returns all current slot claims: running jobs (to their
// estimated ends) and unclaimed reservations.
func (m *BatchManager) commitments() []commitment {
	now := m.eng.Now()
	out := make([]commitment, 0, len(m.running)+len(m.reservations))
	for _, c := range m.running {
		// Commitment order never escapes: minFree sums integer slot
		// counts (commutative) and earliestStart sorts its candidates.
		//gridlint:ignore maporder consumers aggregate commutatively (integer sums) or sort candidates themselves
		out = append(out, *c)
	}
	for _, r := range m.reservations {
		if r.claimed || r.End <= now {
			continue
		}
		start := r.Start
		if start < now {
			start = now
		}
		//gridlint:ignore maporder consumers aggregate commutatively (integer sums) or sort candidates themselves
		out = append(out, commitment{start: start, end: r.End, count: r.Count})
	}
	return out
}

// minFree returns the minimum free slot count over [t0, t1) given the
// commitments plus an optional extra commitment.
func (m *BatchManager) minFree(cs []commitment, t0, t1 time.Duration) int {
	// Evaluate at t0 and at every commitment boundary inside the window.
	points := []time.Duration{t0}
	for _, c := range cs {
		if c.start > t0 && c.start < t1 {
			points = append(points, c.start)
		}
	}
	min := m.Slots + 1
	for _, p := range points {
		used := 0
		for _, c := range cs {
			if c.start <= p && p < c.end {
				used += c.count
			}
		}
		if free := m.Slots - used; free < min {
			min = free
		}
	}
	return min
}

// earliestStart finds the first time >= after at which count slots are
// free for dur, given commitments.
func (m *BatchManager) earliestStart(cs []commitment, count int, dur, after time.Duration) time.Duration {
	// Candidate start times: `after` and each commitment end after it.
	cands := []time.Duration{after}
	for _, c := range cs {
		if c.end > after {
			cands = append(cands, c.end)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, t := range cands {
		if m.minFree(cs, t, endOf(t, dur)) >= count {
			return t
		}
	}
	// Unreachable when count <= Slots: after the last commitment ends the
	// machine is empty.
	panic("gram: no feasible start found")
}

// Submit implements Manager.
func (m *BatchManager) Submit(j *Job) error {
	if j.State() != Unsubmitted {
		return fmt.Errorf("%w: submit in %v", ErrBadState, j.State())
	}
	var span obs.SpanContext
	if m.tr != nil {
		span = m.tr.Begin("gram.job",
			obs.String("mgr", m.name), obs.String("job", j.ID),
			obs.Int("count", j.Count()))
	}
	wall, err := j.MaxWall()
	if err != nil {
		j.FailReason = err
		m.move(j, Failed)
		span.End(obs.Err(err))
		return err
	}
	if j.Count() > m.Slots {
		j.FailReason = fmt.Errorf("%w: %d > %d", ErrTooManySlots, j.Count(), m.Slots)
		m.move(j, Failed)
		span.End(obs.Err(j.FailReason))
		return j.FailReason
	}
	if m.MaxQueue > 0 && len(m.queue) >= m.MaxQueue {
		j.FailReason = ErrQueueFull
		m.move(j, Failed)
		span.End(obs.Err(ErrQueueFull))
		return ErrQueueFull
	}
	j.Submitted = m.eng.Now()
	m.submittedN++
	if m.tr != nil {
		m.jobSpans[j] = span
	}

	// A job naming a reservation claims it rather than queueing.
	if resID := j.Req.StringDefault("reservation", ""); resID != "" {
		return m.claim(j, resID, wall)
	}
	m.move(j, Pending)
	m.queue = append(m.queue, j)
	m.kick()
	return nil
}

// Reserve admits an advance reservation of count slots over
// [start, start+dur), returning its ID, or ErrInfeasible when the window
// cannot be guaranteed alongside existing commitments.
func (m *BatchManager) Reserve(start, dur time.Duration, count int) (string, error) {
	if count > m.Slots {
		return "", fmt.Errorf("%w: %d > %d", ErrTooManySlots, count, m.Slots)
	}
	if start < m.eng.Now() {
		return "", fmt.Errorf("%w: start %v in the past", ErrInfeasible, start)
	}
	end := endOf(start, dur)
	if m.minFree(m.commitments(), start, end) < count {
		return "", ErrInfeasible
	}
	m.resSeq++
	id := fmt.Sprintf("%s-r%d", m.name, m.resSeq)
	m.reservations[id] = &Reservation{ID: id, Start: start, End: end, Count: count}
	// An admitted reservation shrinks what backfill may use.
	m.kick()
	return id, nil
}

// CancelReservation drops an unclaimed reservation.
func (m *BatchManager) CancelReservation(id string) error {
	r, ok := m.reservations[id]
	if !ok || r.claimed {
		return ErrNoReservation
	}
	delete(m.reservations, id)
	m.kick()
	return nil
}

// claim starts a job inside its reservation window.
func (m *BatchManager) claim(j *Job, resID string, wall time.Duration) error {
	r, ok := m.reservations[resID]
	now := m.eng.Now()
	if !ok || r.claimed || now >= r.End {
		j.FailReason = ErrNoReservation
		m.move(j, Failed)
		m.jobSpan(j).End(obs.Err(ErrNoReservation))
		return ErrNoReservation
	}
	if j.Count() > r.Count {
		j.FailReason = fmt.Errorf("%w: job wants %d, reservation holds %d", ErrNoReservation, j.Count(), r.Count)
		m.move(j, Failed)
		m.jobSpan(j).End(obs.Err(j.FailReason))
		return j.FailReason
	}
	m.move(j, Pending)
	if now >= r.Start {
		m.startReserved(j, r, wall)
		return nil
	}
	// Claim at window open.
	m.eng.At(r.Start, func() {
		if j.State() == Pending {
			m.startReserved(j, r, wall)
		}
	})
	return nil
}

func (m *BatchManager) startReserved(j *Job, r *Reservation, wall time.Duration) {
	r.claimed = true
	now := m.eng.Now()
	end := endOf(now, wall)
	if end > r.End {
		end = r.End // the guarantee stops at the window edge
	}
	m.start(j, end-now)
	m.kick()
}

// start moves a job to Active and schedules its completion or wall kill.
func (m *BatchManager) start(j *Job, wall time.Duration) {
	now := m.eng.Now()
	j.Started = now
	end := endOf(now, wall)
	wall = end - now // the kill below must land on a representable instant
	m.running[j] = &commitment{start: now, end: end, count: j.Count()}
	m.move(j, Active)
	m.hWait.Observe(j.WaitTime())
	m.jobSpans[j].Event("gram.active", obs.Dur("wait", j.WaitTime()))
	if j.Spec.ActualRun <= wall {
		m.eng.Schedule(j.Spec.ActualRun, func() { m.finish(j, Done, nil) })
	} else {
		m.eng.Schedule(wall, func() {
			m.WallKillN++
			m.finish(j, Failed, fmt.Errorf("gram: %s exceeded wall limit %v", j.ID, wall))
		})
	}
}

func (m *BatchManager) finish(j *Job, to JobState, reason error) {
	if _, ok := m.running[j]; !ok {
		return
	}
	delete(m.running, j)
	j.Ended = m.eng.Now()
	j.FailReason = reason
	m.move(j, to)
	m.jobSpan(j).End(obs.String("state", to.String()), obs.Err(reason))
	m.kick()
}

// Crash models the cluster's head node dying: every queued and running
// job fails immediately — nothing survives a node crash, which is exactly
// the invariant fault checkers hold GRAM to (no job may report done on a
// crashed node) — and unclaimed reservations are lost. The manager itself
// stays usable for submissions once the site recovers; completion events
// already scheduled for crashed jobs become no-ops.
func (m *BatchManager) Crash(reason error) {
	m.CrashN++
	if m.tr != nil {
		m.tr.Event("gram.crash", obs.String("mgr", m.name), obs.Err(reason))
	}
	now := m.eng.Now()
	queued := m.queue
	m.queue = nil
	for _, j := range queued {
		j.Ended = now
		j.FailReason = reason
		m.move(j, Failed)
		m.jobSpan(j).End(obs.String("state", "failed"), obs.Err(reason))
	}
	running := make([]*Job, 0, len(m.running))
	for j := range m.running {
		running = append(running, j)
	}
	sort.Slice(running, func(i, j int) bool { return running[i].ID < running[j].ID })
	for _, j := range running {
		delete(m.running, j)
		j.Ended = now
		j.FailReason = reason
		m.move(j, Failed)
		m.jobSpan(j).End(obs.String("state", "failed"), obs.Err(reason))
	}
	m.reservations = make(map[string]*Reservation)
	m.timer.Stop()
}

// Cancel implements Manager.
func (m *BatchManager) Cancel(j *Job) error {
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			j.Ended = m.eng.Now()
			m.move(j, Cancelled)
			m.jobSpan(j).End(obs.String("state", "cancelled"))
			return nil
		}
	}
	if _, ok := m.running[j]; ok {
		delete(m.running, j)
		j.Ended = m.eng.Now()
		m.move(j, Cancelled)
		m.jobSpan(j).End(obs.String("state", "cancelled"))
		m.kick()
		return nil
	}
	return ErrUnknownJob
}

// kick runs one EASY-backfill scheduling pass and arms the timer for the
// next decision point.
func (m *BatchManager) kick() {
	now := m.eng.Now()
	for len(m.queue) > 0 {
		head := m.queue[0]
		wall, _ := head.MaxWall()
		cs := m.commitments()
		t := m.earliestStart(cs, head.Count(), wall, now)
		if t == now {
			m.queue = m.queue[1:]
			m.start(head, wall)
			continue
		}
		// Head is blocked until its shadow time t. Pin a shadow
		// commitment for it, then backfill later jobs that fit *now*
		// without disturbing the shadow.
		if !m.DisableBackfill {
			shadow := commitment{start: t, end: endOf(t, wall), count: head.Count()}
			var rest []*Job
			for _, j := range m.queue[1:] {
				jw, _ := j.MaxWall()
				csNow := append(m.commitments(), shadow)
				if m.minFree(csNow, now, endOf(now, jw)) >= j.Count() {
					m.start(j, jw)
					m.BackfilledN++
					continue
				}
				rest = append(rest, j)
			}
			m.queue = append(m.queue[:1], rest...)
		}
		// Re-kick at the shadow time (or earlier events re-kick us).
		m.timer.Reset(t - now)
		return
	}
	m.timer.Stop()
}
