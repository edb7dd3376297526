// Package agreement implements the WS-Agreement protocol [Czajkowski et
// al., GGF 2003] as the paper frames it: "a uniform representation of
// agreements between resource/service providers and consumers", with "a
// (re)negotiation protocol, agreement states and their lifetimes, a
// standard way to describe agreement monitoring services", while "the
// enforcement mechanism on the provider side is not specified: it can be a
// PlanetLab capability, a queuing system supporting reservations on a
// cluster, or any ad-hoc solution."
//
// Accordingly, the provider side takes a pluggable Enforcement; package
// gridlab wires in both backends the paper names — capability minting
// (enforce.go: CapabilityEnforcement) and batch-queue reservations
// (BatchEnforcement) — demonstrating the complementarity claim: "a
// capability is in fact an implied agreement."
package agreement

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Service names registered by a Responder.
const (
	SvcTemplates   = "agreement.templates"
	SvcCreate      = "agreement.create"
	SvcStatus      = "agreement.status"
	SvcTerminate   = "agreement.terminate"
	SvcRenegotiate = "agreement.renegotiate"
)

// Protocol errors.
var (
	ErrNoTemplate       = errors.New("agreement: no such template")
	ErrConstraint       = errors.New("agreement: offer violates template constraints")
	ErrUnknownAgreement = errors.New("agreement: unknown agreement")
	ErrNotObserved      = errors.New("agreement: agreement not in observed state")
	ErrEnforcement      = errors.New("agreement: provider cannot commit resources")
)

// State is the WS-Agreement lifecycle.
type State int

// Agreement states: an offer is Pending until the provider decides,
// Observed while in force, Rejected on refusal, Complete at natural
// expiry, Terminated on consumer abort.
const (
	Pending State = iota
	Observed
	Rejected
	Complete
	Terminated
)

var stateNames = [...]string{"pending", "observed", "rejected", "complete", "terminated"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// TermConstraint bounds one service term in a template. Numeric terms use
// [Min, Max]; string terms must equal Exact when Exact is non-empty.
type TermConstraint struct {
	Name     string
	Min, Max float64
	Exact    string
	IsString bool
}

// Template is a provider's advertised agreement shape (the creation
// constraints of WS-Agreement).
type Template struct {
	Name        string
	Constraints []TermConstraint
}

// Offer is a concrete proposal against a template.
type Offer struct {
	Template string
	Terms    map[string]float64
	Strings  map[string]string
	// Lifetime bounds the agreement; the provider completes it at expiry.
	Lifetime time.Duration
	// Initiator identifies the consumer (for monitoring).
	Initiator string
}

// validate checks an offer against template constraints. Every
// constrained term must be present and in range; unconstrained extra
// terms are allowed (WS-Agreement lets domain-specific terms ride along).
func (t Template) validate(o Offer) error {
	for _, c := range t.Constraints {
		if c.IsString {
			got, ok := o.Strings[c.Name]
			if !ok {
				return fmt.Errorf("%w: missing term %q", ErrConstraint, c.Name)
			}
			if c.Exact != "" && got != c.Exact {
				return fmt.Errorf("%w: %q=%q, want %q", ErrConstraint, c.Name, got, c.Exact)
			}
			continue
		}
		got, ok := o.Terms[c.Name]
		if !ok {
			return fmt.Errorf("%w: missing term %q", ErrConstraint, c.Name)
		}
		if !(got >= c.Min && got <= c.Max) { // the negation also catches NaN
			return fmt.Errorf("%w: %q=%v outside [%v,%v]", ErrConstraint, c.Name, got, c.Min, c.Max)
		}
	}
	return nil
}

// Enforcement is the provider-side commitment backend.
type Enforcement interface {
	// Commit reserves resources for the offer, returning an opaque handle.
	// A term the backend cannot read as a quantity is ErrConstraint.
	Commit(o Offer) (handle any, err error)
	// Release frees a previously committed handle.
	Release(handle any)
}

// Agreement is the provider-side record of one agreement.
type Agreement struct {
	ID      string
	Offer   Offer
	Created time.Duration
	Expires time.Duration

	state  State
	handle any
	expiry sim.Event
}

// State returns the agreement state (monitoring interface).
func (a *Agreement) State() State { return a.state }

// Ack is the wire reply to create/renegotiate/status/terminate.
type Ack struct {
	ID    string
	State State
}

// RenegotiateRequest modifies the terms of an observed agreement.
type RenegotiateRequest struct {
	ID    string
	Offer Offer
}

// Responder is the provider-side agreement service.
type Responder struct {
	eng  *sim.Engine
	net  *simnet.Network
	host string

	templates  map[string]Template
	agreements map[string]*Agreement
	enforce    Enforcement
	seq        int

	// CreatedN / RejectedN count outcomes for experiments.
	CreatedN, RejectedN int
}

// NewResponder installs an agreement provider on host with the given
// enforcement backend.
func NewResponder(eng *sim.Engine, net *simnet.Network, host string, enforce Enforcement) *Responder {
	r := &Responder{
		eng:        eng,
		net:        net,
		host:       host,
		templates:  make(map[string]Template),
		agreements: make(map[string]*Agreement),
		enforce:    enforce,
	}
	h := net.Host(host)
	h.Handle(SvcTemplates, r.handleTemplates)
	h.Handle(SvcCreate, r.handleCreate)
	h.Handle(SvcStatus, r.handleStatus)
	h.Handle(SvcTerminate, r.handleTerminate)
	h.Handle(SvcRenegotiate, r.handleRenegotiate)
	// Expiry events mutate agreements and responder counters, so the
	// whole responder must be in the snapshot walker's reach for
	// Engine.Fork to rewind it (the responder is not hung off the
	// core.Build federation root — agreements run on bare engines too).
	eng.SnapRoot("agreement.responder/"+host, r)
	return r
}

// AddTemplate advertises a template.
func (r *Responder) AddTemplate(t Template) { r.templates[t.Name] = t }

// Agreement returns the provider-side record (monitoring/local use).
func (r *Responder) Agreement(id string) *Agreement { return r.agreements[id] }

func (r *Responder) handleTemplates(string, any) (any, error) {
	out := make([]Template, 0, len(r.templates))
	// Deterministic order by name.
	names := make([]string, 0, len(r.templates))
	for n := range r.templates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, r.templates[n])
	}
	return out, nil
}

func (r *Responder) handleCreate(from string, raw any) (any, error) {
	o, ok := raw.(Offer)
	if !ok {
		return nil, fmt.Errorf("agreement: bad create payload %T", raw)
	}
	t, ok := r.templates[o.Template]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTemplate, o.Template)
	}
	r.seq++
	id := fmt.Sprintf("%s/ag%d", r.host, r.seq)
	a := &Agreement{ID: id, Offer: o, Created: r.eng.Now(), state: Pending}
	r.agreements[id] = a
	if err := t.validate(o); err != nil {
		a.state = Rejected
		r.RejectedN++
		return Ack{ID: id, State: Rejected}, err
	}
	handle, err := r.enforce.Commit(o)
	if err != nil {
		a.state = Rejected
		r.RejectedN++
		return Ack{ID: id, State: Rejected}, commitErr(err)
	}
	a.handle = handle
	a.state = Observed
	r.CreatedN++
	if o.Lifetime > 0 {
		a.Expires = r.eng.Now() + o.Lifetime
		a.expiry = r.eng.Schedule(o.Lifetime, func() { r.complete(a) })
	}
	return Ack{ID: id, State: Observed}, nil
}

// commitErr types a refusal: a malformed term stays the offer's fault.
func commitErr(err error) error {
	if errors.Is(err, ErrConstraint) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrEnforcement, err)
}

func (r *Responder) complete(a *Agreement) {
	if a.state != Observed {
		return
	}
	a.state = Complete
	r.enforce.Release(a.handle)
	a.handle = nil
}

func (r *Responder) handleStatus(from string, raw any) (any, error) {
	id, ok := raw.(string)
	if !ok {
		return nil, fmt.Errorf("agreement: bad status payload %T", raw)
	}
	a, ok := r.agreements[id]
	if !ok {
		return nil, ErrUnknownAgreement
	}
	return Ack{ID: id, State: a.state}, nil
}

func (r *Responder) handleTerminate(from string, raw any) (any, error) {
	id, ok := raw.(string)
	if !ok {
		return nil, fmt.Errorf("agreement: bad terminate payload %T", raw)
	}
	a, ok := r.agreements[id]
	if !ok {
		return nil, ErrUnknownAgreement
	}
	if a.state == Observed {
		a.state = Terminated
		r.enforce.Release(a.handle)
		a.handle = nil
		r.eng.Cancel(a.expiry)
	}
	return Ack{ID: id, State: a.state}, nil
}

// handleRenegotiate atomically replaces an observed agreement's terms:
// commit the new offer first, then release the old commitment; on
// failure the original agreement stays in force.
func (r *Responder) handleRenegotiate(from string, raw any) (any, error) {
	req, ok := raw.(RenegotiateRequest)
	if !ok {
		return nil, fmt.Errorf("agreement: bad renegotiate payload %T", raw)
	}
	a, ok := r.agreements[req.ID]
	if !ok {
		return nil, ErrUnknownAgreement
	}
	if a.state != Observed {
		return Ack{ID: a.ID, State: a.state}, ErrNotObserved
	}
	t, ok := r.templates[req.Offer.Template]
	if !ok {
		return Ack{ID: a.ID, State: a.state}, fmt.Errorf("%w: %q", ErrNoTemplate, req.Offer.Template)
	}
	if err := t.validate(req.Offer); err != nil {
		return Ack{ID: a.ID, State: a.state}, err
	}
	newHandle, err := r.enforce.Commit(req.Offer)
	if err != nil {
		return Ack{ID: a.ID, State: a.state}, commitErr(err)
	}
	r.enforce.Release(a.handle)
	a.handle = newHandle
	a.Offer = req.Offer
	r.eng.Cancel(a.expiry)
	a.expiry = sim.Event{}
	if req.Offer.Lifetime > 0 {
		a.Expires = r.eng.Now() + req.Offer.Lifetime
		a.expiry = r.eng.Schedule(req.Offer.Lifetime, func() { r.complete(a) })
	}
	return Ack{ID: a.ID, State: Observed}, nil
}

// Create is the initiator-side helper: propose an offer to a provider.
func Create(net *simnet.Network, from, provider string, o Offer, timeout time.Duration, done func(Ack, error)) {
	net.Call(from, provider, SvcCreate, o, timeout, func(resp any, err error) {
		ack, _ := resp.(Ack)
		done(ack, err)
	})
}

// Templates fetches a provider's advertised templates.
func Templates(net *simnet.Network, from, provider string, timeout time.Duration, done func([]Template, error)) {
	net.Call(from, provider, SvcTemplates, nil, timeout, func(resp any, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(resp.([]Template), nil)
	})
}
