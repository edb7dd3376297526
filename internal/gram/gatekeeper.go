package gram

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/rsl"
	"repro/internal/simnet"
)

// Service names the gatekeeper registers on its host.
const (
	SvcSubmit  = "gram.submit"
	SvcStatus  = "gram.status"
	SvcCancel  = "gram.cancel"
	SvcReserve = "gram.reserve"
)

// SubmitRequest is the wire form of a job submission: the caller's
// delegated credential travels with the job ("the scheduler receives jobs
// descriptions from users and submits them to individual sites on behalf
// of these users").
type SubmitRequest struct {
	Cred *identity.Credential
	// Assertion, when set, admits the caller on a CAS assertion for
	// ("submit", the gatekeeper's host) instead of a gridmap entry.
	Assertion *gsi.Assertion
	Spec      JobSpec
	// Manager selects the job manager; empty picks the default.
	Manager string
	// CallbackHost/Service receive asynchronous state notifications.
	CallbackHost    string
	CallbackService string
}

// SubmitReply acknowledges a submission.
type SubmitReply struct {
	JobID string
	State JobState
}

// StateNotice is pushed to the callback contact on every transition.
type StateNotice struct {
	JobID string
	State JobState
	// Reason is the failure reason, when failed.
	Reason string
}

// StatusReply answers a status poll.
type StatusReply struct {
	State JobState
}

// ReserveRequest asks the batch manager for an advance reservation.
type ReserveRequest struct {
	Cred    *identity.Credential
	Manager string
	Start   time.Duration
	Dur     time.Duration
	Count   int
}

// ReserveReply returns the reservation handle.
type ReserveReply struct {
	ReservationID string
}

// Gatekeeper is a site's GRAM front door: it authenticates with GSI,
// authorizes through the site gridmap, and dispatches to job managers.
type Gatekeeper struct {
	net    *simnet.Network
	host   *simnet.Host
	policy *gsi.SitePolicy

	managers map[string]Manager
	def      string
	// jobs holds every accepted job in ascending-ID order; none is ever
	// removed. IDs are "host/N", so "gk/10" sorts before "gk/9".
	jobs []*Job
	seq  int

	// AuthFailN counts rejected submissions, SubmitN accepted ones.
	AuthFailN, SubmitN int
}

// NewGatekeeper installs a gatekeeper on host with the given site policy.
func NewGatekeeper(net *simnet.Network, host *simnet.Host, policy *gsi.SitePolicy) *Gatekeeper {
	g := &Gatekeeper{
		net:      net,
		host:     host,
		policy:   policy,
		managers: make(map[string]Manager),
	}
	simnet.Serve(host, SvcSubmit, g.handleSubmit)
	simnet.Serve(host, SvcStatus, g.handleStatus)
	simnet.Serve(host, SvcCancel, g.handleCancel)
	simnet.Serve(host, SvcReserve, g.handleReserve)
	return g
}

// AddManager registers a job manager; the first one becomes the default.
func (g *Gatekeeper) AddManager(name string, m Manager) {
	if len(g.managers) == 0 {
		g.def = name
	}
	g.managers[name] = m
}

// Job returns a job by ID, or nil (local API, used in tests and by
// managers).
func (g *Gatekeeper) Job(id string) *Job {
	if i, ok := g.jobIndex(id); ok {
		return g.jobs[i]
	}
	return nil
}

// jobIndex finds id in the ID-ordered job list, or where it would go.
func (g *Gatekeeper) jobIndex(id string) (int, bool) {
	return slices.BinarySearchFunc(g.jobs, id, func(j *Job, id string) int { return strings.Compare(j.ID, id) })
}

// addJob files an accepted job in ID order.
func (g *Gatekeeper) addJob(j *Job) {
	i, _ := g.jobIndex(j.ID)
	g.jobs = slices.Insert(g.jobs, i, j)
}

// EachJob calls fn with every job this gatekeeper has accepted, in
// ascending-ID order, so audits over the job set are deterministic. It
// reads the live list: fn must not submit to this gatekeeper.
func (g *Gatekeeper) EachJob(fn func(*Job)) {
	for _, j := range g.jobs {
		fn(j)
	}
}

func (g *Gatekeeper) handleSubmit(from string, req SubmitRequest) (SubmitReply, error) {
	now := g.net.Engine().Now()
	var local, subject string
	var err error
	if req.Assertion != nil {
		local, subject, err = g.policy.AdmitWithAssertion(req.Cred, req.Assertion, "submit", g.host.Name, now)
	} else {
		local, subject, err = g.policy.Admit(req.Cred, "submit", now)
	}
	if err != nil {
		g.AuthFailN++
		return SubmitReply{}, err
	}
	spec, err := rsl.Parse(req.Spec.RSL)
	if err != nil {
		return SubmitReply{}, err
	}
	r, err := spec.Single()
	if err != nil {
		return SubmitReply{}, err
	}
	mgrName := req.Manager
	if mgrName == "" {
		mgrName = r.StringDefault("jobmanager", g.def)
	}
	mgr, ok := g.managers[mgrName]
	if !ok {
		return SubmitReply{}, fmt.Errorf("%w: %q", ErrNoSuchManager, mgrName)
	}
	g.seq++
	job := &Job{
		ID:  fmt.Sprintf("%s/%d", g.host.Name, g.seq),
		Req: r,
		Spec: JobSpec{
			RSL:          req.Spec.RSL,
			ActualRun:    req.Spec.ActualRun,
			Owner:        subject,
			LocalAccount: local,
		},
	}
	if req.CallbackHost != "" {
		cbHost, cbSvc := req.CallbackHost, req.CallbackService
		job.OnState = func(j *Job, s JobState) {
			n := StateNotice{JobID: j.ID, State: s}
			if j.FailReason != nil {
				n.Reason = j.FailReason.Error()
			}
			simnet.Post(g.net, g.host.Name, cbHost, cbSvc, n)
		}
	}
	g.addJob(job)
	if err := mgr.Submit(job); err != nil {
		return SubmitReply{}, err
	}
	g.SubmitN++
	return SubmitReply{JobID: job.ID, State: job.State()}, nil
}

func (g *Gatekeeper) handleStatus(from string, id string) (StatusReply, error) {
	j := g.Job(id)
	if j == nil {
		return StatusReply{}, ErrUnknownJob
	}
	return StatusReply{State: j.State()}, nil
}

func (g *Gatekeeper) handleCancel(from string, id string) (StatusReply, error) {
	j := g.Job(id)
	if j == nil {
		return StatusReply{}, ErrUnknownJob
	}
	// Find the manager holding it by asking each; managers return
	// ErrUnknownJob for jobs they do not hold.
	for _, m := range g.managers {
		if err := m.Cancel(j); err == nil {
			return StatusReply{State: j.State()}, nil
		}
	}
	return StatusReply{}, ErrUnknownJob
}

func (g *Gatekeeper) handleReserve(from string, req ReserveRequest) (ReserveReply, error) {
	now := g.net.Engine().Now()
	if _, _, err := g.policy.Admit(req.Cred, "reserve", now); err != nil {
		g.AuthFailN++
		return ReserveReply{}, err
	}
	mgrName := req.Manager
	if mgrName == "" {
		mgrName = g.def
	}
	mgr, ok := g.managers[mgrName]
	if !ok {
		return ReserveReply{}, fmt.Errorf("%w: %q", ErrNoSuchManager, mgrName)
	}
	bm, ok := mgr.(*BatchManager)
	if !ok {
		return ReserveReply{}, fmt.Errorf("gram: manager %q does not support reservations", mgrName)
	}
	id, err := bm.Reserve(req.Start, req.Dur, req.Count)
	if err != nil {
		return ReserveReply{}, err
	}
	return ReserveReply{ReservationID: id}, nil
}

// Submit is the client-side helper: send a job to a gatekeeper host and
// deliver the reply asynchronously.
func Submit(net *simnet.Network, from, gatekeeper string, req SubmitRequest, timeout time.Duration, done func(SubmitReply, error)) {
	simnet.Request(net, from, gatekeeper, SvcSubmit, req, timeout, done)
}
