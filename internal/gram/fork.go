package gram

import (
	"fmt"

	"repro/internal/silk"
	"repro/internal/sim"
)

// ForkManager is the best-effort local scheduler: jobs start immediately
// and contend for the node's CPU under proportional sharing, so load
// stretches everyone's completion time. This is the "most resource
// allocations are 'best-effort'" regime.
type ForkManager struct {
	eng  *sim.Engine
	node *silk.Node
	ctx  *silk.Context

	tasks map[*Job]*sim.FluidConsumer

	// CompletedN counts finished jobs.
	CompletedN int
}

// NewForkManager creates a fork manager executing on node.
func NewForkManager(eng *sim.Engine, node *silk.Node) (*ForkManager, error) {
	ctx, err := node.NewContext("gram-fork", silk.ContextSpec{CPUShares: 1})
	if err != nil {
		return nil, err
	}
	return &ForkManager{eng: eng, node: node, ctx: ctx, tasks: make(map[*Job]*sim.FluidConsumer)}, nil
}

// Submit implements Manager: the job goes Active immediately; its CPU
// demand is count × ActualRun core-seconds.
func (m *ForkManager) Submit(j *Job) error {
	if j.State() != Unsubmitted {
		return fmt.Errorf("%w: submit in %v", ErrBadState, j.State())
	}
	j.Submitted = m.eng.Now()
	work := j.Spec.ActualRun.Seconds() * float64(j.Count())
	j.Started = m.eng.Now()
	j.transition(Active)
	task, err := m.ctx.RunTask(j.ID, work, func() {
		delete(m.tasks, j)
		j.Ended = m.eng.Now()
		m.CompletedN++
		j.transition(Done)
	})
	if err != nil {
		j.FailReason = err
		j.transition(Failed)
		return err
	}
	m.tasks[j] = task
	return nil
}

// Cancel implements Manager.
func (m *ForkManager) Cancel(j *Job) error {
	task, ok := m.tasks[j]
	if !ok {
		return ErrUnknownJob
	}
	m.ctx.KillTask(task)
	delete(m.tasks, j)
	j.Ended = m.eng.Now()
	j.transition(Cancelled)
	return nil
}
