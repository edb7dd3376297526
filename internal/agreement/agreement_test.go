package agreement

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
)

type fixture struct {
	eng *sim.Engine
	net *simnet.Network
	nm  *capability.NodeManager
	r   *Responder
}

func newCapFixture(t *testing.T) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 20, 0)
	net.AddHost("consumer", "A", 1e6)
	net.AddHost("provider", "B", 1e6)
	nm := capability.NewNodeManager("provider", eng, rand.New(rand.NewSource(7)), map[capability.ResourceType]float64{
		capability.CPU: 4, capability.Network: 1000,
	})
	r := NewResponder(eng, net, "provider", &CapabilityEnforcement{Eng: eng, NM: nm})
	r.AddTemplate(Template{
		Name: "compute",
		Constraints: []TermConstraint{
			{Name: "cpu", Min: 0.1, Max: 4},
		},
	})
	return &fixture{eng: eng, net: net, nm: nm, r: r}
}

func TestTemplateFetch(t *testing.T) {
	f := newCapFixture(t)
	f.r.AddTemplate(Template{Name: "another"})
	var got []Template
	Templates(f.net, "consumer", "provider", time.Minute, func(ts []Template, err error) { got = ts })
	f.eng.Run()
	if len(got) != 2 || got[0].Name != "another" || got[1].Name != "compute" {
		t.Errorf("templates = %+v", got)
	}
}

func TestCreateObservedAndExpiry(t *testing.T) {
	f := newCapFixture(t)
	var ack Ack
	var err error
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute",
		Terms:    map[string]float64{"cpu": 2},
		Lifetime: time.Hour,
	}, time.Minute, func(a Ack, e error) { ack, err = a, e })
	f.eng.RunUntil(time.Second)
	if err != nil || ack.State != Observed {
		t.Fatalf("create = (%+v, %v)", ack, err)
	}
	// Capacity committed while observed.
	if got := f.nm.Available(capability.CPU); got != 2 {
		t.Errorf("Available = %v during agreement", got)
	}
	// At expiry the agreement completes and resources return.
	f.eng.Run()
	if st := f.r.Agreement(ack.ID).State(); st != Complete {
		t.Errorf("state = %v, want complete", st)
	}
	if got := f.nm.Available(capability.CPU); got != 4 {
		t.Errorf("Available = %v after expiry", got)
	}
}

func TestCreateRejectedByConstraint(t *testing.T) {
	f := newCapFixture(t)
	var ack Ack
	var err error
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute",
		Terms:    map[string]float64{"cpu": 8}, // beyond Max 4
	}, time.Minute, func(a Ack, e error) { ack, err = a, e })
	f.eng.Run()
	if !errors.Is(err, ErrConstraint) || ack.State != Rejected {
		t.Errorf("create = (%+v, %v)", ack, err)
	}
	if f.r.RejectedN != 1 {
		t.Errorf("RejectedN = %d", f.r.RejectedN)
	}
}

func TestCreateRejectedByEnforcement(t *testing.T) {
	f := newCapFixture(t)
	// Consume the node first.
	if _, err := f.nm.Mint(capability.MintRequest{Type: capability.CPU, Amount: 3.5, Dedicated: true, NotAfter: time.Hour}); err != nil {
		t.Fatal(err)
	}
	var ack Ack
	var err error
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute",
		Terms:    map[string]float64{"cpu": 2}, // within template, beyond capacity
	}, time.Minute, func(a Ack, e error) { ack, err = a, e })
	f.eng.Run()
	if !errors.Is(err, ErrEnforcement) || ack.State != Rejected {
		t.Errorf("create = (%+v, %v)", ack, err)
	}
}

func TestUnknownTemplate(t *testing.T) {
	f := newCapFixture(t)
	var err error
	Create(f.net, "consumer", "provider", Offer{Template: "nosuch"}, time.Minute,
		func(_ Ack, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, ErrNoTemplate) {
		t.Errorf("err = %v", err)
	}
}

func TestTerminateReleases(t *testing.T) {
	f := newCapFixture(t)
	var id string
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute", Terms: map[string]float64{"cpu": 2}, Lifetime: 100 * time.Hour,
	}, time.Minute, func(a Ack, e error) { id = a.ID })
	f.eng.RunUntil(time.Second)
	var ack Ack
	f.net.Call("consumer", "provider", SvcTerminate, id, time.Minute, func(r any, e error) {
		if e == nil {
			ack = r.(Ack)
		}
	})
	f.eng.RunUntil(2 * time.Second)
	if ack.State != Terminated {
		t.Fatalf("terminate ack = %+v", ack)
	}
	if got := f.nm.Available(capability.CPU); got != 4 {
		t.Errorf("Available = %v after terminate", got)
	}
	// Expiry event must not flip it to Complete later.
	f.eng.Run()
	if st := f.r.Agreement(id).State(); st != Terminated {
		t.Errorf("state flipped to %v", st)
	}
}

func TestStatusMonitoring(t *testing.T) {
	f := newCapFixture(t)
	var id string
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute", Terms: map[string]float64{"cpu": 1}, Lifetime: time.Hour,
	}, time.Minute, func(a Ack, e error) { id = a.ID })
	f.eng.RunUntil(time.Second)
	var st Ack
	f.net.Call("consumer", "provider", SvcStatus, id, time.Minute, func(r any, e error) {
		if e == nil {
			st = r.(Ack)
		}
	})
	f.eng.RunUntil(2 * time.Second)
	if st.State != Observed {
		t.Errorf("status = %v", st.State)
	}
	var unkErr error
	f.net.Call("consumer", "provider", SvcStatus, "nosuch", time.Minute, func(_ any, e error) { unkErr = e })
	f.eng.Run()
	if !errors.Is(unkErr, ErrUnknownAgreement) {
		t.Errorf("unknown status: %v", unkErr)
	}
}

func TestRenegotiateGrow(t *testing.T) {
	f := newCapFixture(t)
	var id string
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute", Terms: map[string]float64{"cpu": 1}, Lifetime: 100 * time.Hour,
	}, time.Minute, func(a Ack, e error) { id = a.ID })
	f.eng.RunUntil(time.Second)
	var ack Ack
	var err error
	f.net.Call("consumer", "provider", SvcRenegotiate, RenegotiateRequest{
		ID:    id,
		Offer: Offer{Template: "compute", Terms: map[string]float64{"cpu": 3}, Lifetime: 100 * time.Hour},
	}, time.Minute, func(r any, e error) {
		if a, ok := r.(Ack); ok {
			ack = a
		}
		err = e
	})
	f.eng.RunUntil(2 * time.Second)
	if err != nil || ack.State != Observed {
		t.Fatalf("renegotiate = (%+v, %v)", ack, err)
	}
	if got := f.nm.Available(capability.CPU); got != 1 {
		t.Errorf("Available = %v, want 1 (4-3)", got)
	}
}

func TestRenegotiateInfeasibleKeepsOriginal(t *testing.T) {
	f := newCapFixture(t)
	var id string
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute", Terms: map[string]float64{"cpu": 3}, Lifetime: 100 * time.Hour,
	}, time.Minute, func(a Ack, e error) { id = a.ID })
	f.eng.RunUntil(time.Second)
	// Growing to 4 requires 4 free, but only 1 is free plus our own 3:
	// commit-before-release makes this fail, preserving the original.
	var err error
	f.net.Call("consumer", "provider", SvcRenegotiate, RenegotiateRequest{
		ID:    id,
		Offer: Offer{Template: "compute", Terms: map[string]float64{"cpu": 4}},
	}, time.Minute, func(_ any, e error) { err = e })
	f.eng.RunUntil(2 * time.Second)
	if !errors.Is(err, ErrEnforcement) {
		t.Fatalf("err = %v", err)
	}
	if st := f.r.Agreement(id).State(); st != Observed {
		t.Errorf("original lost: %v", st)
	}
	if got := f.nm.Available(capability.CPU); got != 1 {
		t.Errorf("Available = %v, want 1", got)
	}
}

func TestStringTermConstraint(t *testing.T) {
	f := newCapFixture(t)
	f.r.AddTemplate(Template{
		Name: "os-pinned",
		Constraints: []TermConstraint{
			{Name: "cpu", Min: 0.1, Max: 4},
			{Name: "os", Exact: "linux", IsString: true},
		},
	})
	var err error
	Create(f.net, "consumer", "provider", Offer{
		Template: "os-pinned",
		Terms:    map[string]float64{"cpu": 1},
		Strings:  map[string]string{"os": "solaris"},
	}, time.Minute, func(_ Ack, e error) { err = e })
	f.eng.RunUntil(time.Second)
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("os mismatch: %v", err)
	}
}

func TestBatchEnforcementBackend(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddHost("consumer", "A", 1e6)
	net.AddHost("provider", "A", 1e6)
	bm := gram.NewBatchManager(eng, "batch", 8)
	r := NewResponder(eng, net, "provider", &BatchEnforcement{BM: bm})
	r.AddTemplate(Template{
		Name: "reserve",
		Constraints: []TermConstraint{
			{Name: "slots", Min: 1, Max: 8},
			{Name: "start", Min: 0, Max: 1e9},
			{Name: "duration", Min: 60, Max: 86400},
		},
	})
	var ack Ack
	var err error
	Create(net, "consumer", "provider", Offer{
		Template: "reserve",
		Terms:    map[string]float64{"slots": 8, "start": 3600, "duration": 3600},
	}, time.Minute, func(a Ack, e error) { ack, err = a, e })
	eng.RunUntil(time.Second)
	if err != nil || ack.State != Observed {
		t.Fatalf("create = (%+v, %v)", ack, err)
	}
	// The reservation is real: an identical second one must be refused.
	var err2 error
	Create(net, "consumer", "provider", Offer{
		Template: "reserve",
		Terms:    map[string]float64{"slots": 8, "start": 3600, "duration": 3600},
	}, time.Minute, func(a Ack, e error) { err2 = e })
	eng.RunUntil(2 * time.Second)
	if !errors.Is(err2, ErrEnforcement) {
		t.Errorf("double reservation: %v", err2)
	}
	// The handle is the reservation's ID.
	if id, _ := r.Agreement(ack.ID).handle.(string); id == "" {
		t.Error("no reservation id in handle")
	}
}

func TestCapabilitiesAccessor(t *testing.T) {
	f := newCapFixture(t)
	var id string
	Create(f.net, "consumer", "provider", Offer{
		Template: "compute", Terms: map[string]float64{"cpu": 1}, Lifetime: time.Hour,
	}, time.Minute, func(a Ack, e error) { id = a.ID })
	f.eng.RunUntil(time.Second)
	ids, _ := f.r.Agreement(id).handle.([]capability.ID)
	if len(ids) != 1 {
		t.Fatalf("capabilities = %v", ids)
	}
	// The minted capability is bindable at the node manager.
	if _, err := f.nm.Bind(ids[0]); err != nil {
		t.Errorf("bind minted capability: %v", err)
	}
}

func TestSharpEnforcementBackend(t *testing.T) {
	// §6: WS-Agreement as the vehicle for usage-delegation agreements,
	// enforced by SHARP tickets+leases.
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddHost("consumer", "A", 1e6)
	net.AddHost("provider", "A", 1e6)
	rng := rand.New(rand.NewSource(8))
	nm := capability.NewNodeManager("A", eng, rng, map[capability.ResourceType]float64{capability.CPU: 4})
	auth := sharp.NewAuthority(eng, "A", identity.NewPrincipal("auth@A", rng), nm,
		map[capability.ResourceType]float64{capability.CPU: 4})
	r := NewResponder(eng, net, "provider", &SharpEnforcement{
		Authority: auth,
		Holder:    identity.NewPrincipal("responder", rng),
		Clock:     eng,
	})
	r.AddTemplate(Template{Name: "cpu-lease", Constraints: []TermConstraint{{Name: "cpu", Min: 0.1, Max: 4}}})

	var ack Ack
	var err error
	Create(net, "consumer", "provider", Offer{
		Template: "cpu-lease", Terms: map[string]float64{"cpu": 3}, Lifetime: time.Hour,
	}, time.Minute, func(a Ack, e error) { ack, err = a, e })
	eng.RunUntil(time.Second)
	if err != nil || ack.State != Observed {
		t.Fatalf("create = (%+v, %v)", ack, err)
	}
	if h, _ := r.Agreement(ack.ID).handle.(sharpHandle); h.lease == nil || h.lease.Amount != 3 {
		t.Fatalf("lease = %+v", h.lease)
	}
	// Capacity is held by the lease...
	if got := nm.Available(capability.CPU); got != 1 {
		t.Errorf("Available = %v during agreement", got)
	}
	// ...a second over-capacity agreement is rejected at the SHARP layer...
	var err2 error
	Create(net, "consumer", "provider", Offer{
		Template: "cpu-lease", Terms: map[string]float64{"cpu": 2}, Lifetime: time.Hour,
	}, time.Minute, func(_ Ack, e error) { err2 = e })
	eng.RunUntil(2 * time.Second)
	if !errors.Is(err2, ErrEnforcement) {
		t.Errorf("overcommit via sharp: %v", err2)
	}
	// ...and expiry releases it.
	eng.Run()
	if got := nm.Available(capability.CPU); got != 4 {
		t.Errorf("Available = %v after expiry", got)
	}
}

// propose sends one offer and runs the exchange to its reply.
func propose(eng *sim.Engine, net *simnet.Network, o Offer) (ack Ack, err error) {
	Create(net, "consumer", "provider", o, time.Minute, func(a Ack, e error) { ack, err = a, e })
	eng.RunUntil(eng.Now() + time.Second)
	return ack, err
}

// call runs one request against the provider to its reply.
func call(eng *sim.Engine, net *simnet.Network, svc string, payload any) (ack Ack, err error) {
	net.Call("consumer", "provider", svc, payload, time.Minute, func(r any, e error) { ack, _ = r.(Ack); err = e })
	eng.RunUntil(eng.Now() + time.Second)
	return ack, err
}

// freeSlots is how many slots the machine can still promise from now on
// to the end of time: the batch manager exports no reservation count, so
// the probe asks for the most it will admit and hands it straight back.
func freeSlots(eng *sim.Engine, bm *gram.BatchManager) int {
	for k := bm.Slots; k > 0; k-- {
		if id, err := bm.Reserve(eng.Now(), math.MaxInt64, k); err == nil {
			_ = bm.CancelReservation(id)
			return k
		}
	}
	return 0
}

// TestNaNTermFailsItsConstraint: NaN is outside every range, but it used
// to pass `got < Min || got > Max` and reach the node manager, whose
// refusal came back as the provider's fault.
func TestNaNTermFailsItsConstraint(t *testing.T) {
	f := newCapFixture(t)
	for _, cpu := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 9.3e9, -1, 0} {
		ack, err := propose(f.eng, f.net, Offer{Template: "compute", Terms: map[string]float64{"cpu": cpu}, Lifetime: time.Hour})
		if !errors.Is(err, ErrConstraint) || errors.Is(err, ErrEnforcement) || ack.State != Rejected {
			t.Errorf("cpu=%v: create = (%+v, %v), want rejected with ErrConstraint", cpu, ack, err)
		}
		if free := f.nm.Available(capability.CPU); free != 4 {
			t.Errorf("cpu=%v: %v of 4 cpu free after a rejected offer", cpu, free)
		}
	}
	ack, err := propose(f.eng, f.net, Offer{Template: "compute", Terms: map[string]float64{"cpu": 2.5}, Lifetime: time.Hour})
	if err != nil || ack.State != Observed || f.nm.Available(capability.CPU) != 1.5 {
		t.Fatalf("cpu=2.5: create = (%+v, %v) with %v cpu free, want observed with 1.5", ack, err, f.nm.Available(capability.CPU))
	}
	// The same through renegotiation: refused, and the original stands.
	ack, err = call(f.eng, f.net, SvcRenegotiate, RenegotiateRequest{ID: ack.ID,
		Offer: Offer{Template: "compute", Terms: map[string]float64{"cpu": math.NaN()}}})
	if !errors.Is(err, ErrConstraint) || ack.State != Observed || f.nm.Available(capability.CPU) != 1.5 {
		t.Errorf("renegotiate to NaN = (%+v, %v), %v cpu free; want ErrConstraint and the 2.5 kept",
			ack, err, f.nm.Available(capability.CPU))
	}
}

// TestBatchTermsAreCheckedBeforeConversion: slots, start and duration are
// wire floats. Converting one that does not fit is implementation-defined
// in Go; on amd64 it happened to yield MinInt64 and a refusal in the
// provider's name, elsewhere it may saturate and reserve the machine
// until the end of time. Each is now the offer's ErrConstraint, decided
// before the conversion, and leaves the whole machine free.
func TestBatchTermsAreCheckedBeforeConversion(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddHost("consumer", "A", 1e6)
	net.AddHost("provider", "A", 1e6)
	bm := gram.NewBatchManager(eng, "batch", 8)
	r := NewResponder(eng, net, "provider", &BatchEnforcement{BM: bm})
	// No constraint on any term: WS-Agreement lets unconstrained terms
	// ride along, so the backend is the only reader.
	r.AddTemplate(Template{Name: "open"})
	free := func() int { return freeSlots(eng, bm) }
	offer := func(term string, v float64) Offer {
		o := Offer{Template: "open", Terms: map[string]float64{"slots": 2, "start": 3600, "duration": 600}}
		o.Terms[term] = v
		return o
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 9.3e9, -1}
	for _, tc := range []struct {
		term   string
		values []float64
	}{
		{"slots", append([]float64{2.9, 0}, bad...)},
		{"start", bad},
		{"duration", append([]float64{0}, bad...)},
	} {
		for _, v := range tc.values {
			ack, err := propose(eng, net, offer(tc.term, v))
			if !errors.Is(err, ErrConstraint) || errors.Is(err, ErrEnforcement) || ack.State != Rejected {
				t.Errorf("%s=%v: create = (%+v, %v), want rejected with ErrConstraint", tc.term, v, ack, err)
			}
			if got := free(); got != bm.Slots {
				t.Errorf("%s=%v: %d of %d slots free after a rejected offer", tc.term, v, got, bm.Slots)
			}
		}
	}
	// Fractions of a second are fine; fractions of a slot were not, yet
	// 2.9 used to reserve 2.
	ack, err := propose(eng, net, offer("start", 3600.5))
	if err != nil || ack.State != Observed || free() != 6 {
		t.Fatalf("start=3600.5: create = (%+v, %v), %d slots free; want observed and 6", ack, err, free())
	}
	for _, o := range []Offer{offer("slots", math.NaN()), offer("start", 9.3e9), offer("duration", math.Inf(1))} {
		re, err := call(eng, net, SvcRenegotiate, RenegotiateRequest{ID: ack.ID, Offer: o})
		if !errors.Is(err, ErrConstraint) || re.State != Observed || free() != 6 {
			t.Errorf("renegotiate to %v = (%+v, %v), %d slots free; want ErrConstraint and the original kept", o.Terms, re, err, free())
		}
	}
	if re, err := call(eng, net, SvcTerminate, ack.ID); err != nil || re.State != Terminated || free() != bm.Slots {
		t.Errorf("terminate = (%+v, %v), %d slots free; want the machine back", re, err, free())
	}
	// A whole machine that is merely too many slots is the provider's no.
	if ack, err := propose(eng, net, offer("slots", 9)); !errors.Is(err, ErrEnforcement) || ack.State != Rejected {
		t.Errorf("slots=9 of 8: create = (%+v, %v), want ErrEnforcement", ack, err)
	}
}
