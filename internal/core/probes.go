package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/mds"
	"repro/internal/silk"
)

// ErrNoMechanism marks a probe failing because the architecture simply
// has no mechanism for the operation — the interesting failures in
// Figure 1's y-axis (e.g. identity delegation on PlanetLab, resource
// usage delegation on stock Globus).
var ErrNoMechanism = errors.New("core: architecture provides no mechanism")

// Probe is one VO-level operation the functionality score counts.
type Probe struct {
	Name string
	// Desc cites the paper claim the probe operationalizes.
	Desc string
	Run  func(f *Federation) error
}

// Probes returns the full suite. Each probe performs real protocol work
// against the built federation; none inspects the Stack tag except where
// the architecture genuinely lacks the machinery (ErrNoMechanism arises
// from absent components, not from a switch on Stack).
func Probes() []Probe {
	return []Probe{
		{"discovery", "find at least one VO resource through the discovery plane", probeDiscovery},
		{"remote-execution", "run work on a remote site through the VO path", probeRemoteExecution},
		{"advance-reservation", "the paper's midnight-slot example: reserve future capacity", probeReservation},
		{"co-allocation", "simultaneous resources at two sites, all-or-nothing", probeCoAllocation},
		{"identity-delegation", "a broker acts on a user's behalf with a delegated identity", probeIdentityDelegation},
		{"usage-delegation", "a site delegates resource-consumption rights to a broker", probeUsageDelegation},
		{"fine-grained-control", "claim a fraction of a CPU with kernel-level enforcement", probeFineGrained},
		{"uniform-node-api", "operate every member node without per-site adaptation", probeUniformAPI},
		{"central-update-push", "push a software update to every member node centrally", probeCentralUpdate},
		{"vm-instantiation", "obtain a virtual machine as a long-lived point of presence", probeVMInstantiation},
	}
}

func firstPLSite(f *Federation) *Site {
	for _, s := range f.JoinedSites() {
		if s.Runtime != nil {
			return s
		}
	}
	return nil
}

func plSites(f *Federation) []*Site {
	var out []*Site
	for _, s := range f.JoinedSites() {
		if s.Runtime != nil {
			out = append(out, s)
		}
	}
	return out
}

func globusSites(f *Federation) []*Site {
	var out []*Site
	for _, s := range f.JoinedSites() {
		if s.Gatekeeper != nil {
			out = append(out, s)
		}
	}
	return out
}

func probeDiscovery(f *Federation) error {
	if len(globusSites(f)) > 0 {
		reply := f.Index.Eval(mds.Query{})
		if len(reply.Records) == 0 {
			return fmt.Errorf("core: index empty")
		}
		return nil
	}
	// PlanetLab's discovery plane is the per-node sensor feed into the
	// central collector (the CoMon/Sophia role).
	if len(plSites(f)) == 0 {
		return fmt.Errorf("core: no members to discover")
	}
	reply := f.Comon.Eval(mds.Query{})
	if len(reply.Records) == 0 {
		return fmt.Errorf("core: sensor collector empty")
	}
	return nil
}

func probeRemoteExecution(f *Federation) error {
	if len(globusSites(f)) > 0 {
		user := f.User("probe-user")
		proxy, err := user.Delegate("probe-user/proxy", f.Eng.Now(), 12*time.Hour, nil, f.Rng)
		if err != nil {
			return err
		}
		var got error
		done := false
		f.Matchmaker.SubmitJob(proxy, gram.JobSpec{
			RSL: `&(executable=/bin/probe)(count=1)(maxWallTime=60)`, ActualRun: 10 * time.Second,
		}, nil, func(p broker.Placement, e error) { got, done = e, true })
		f.Eng.RunUntil(f.Eng.Now() + 5*time.Minute)
		if !done {
			return fmt.Errorf("core: remote execution never completed")
		}
		return got
	}
	site := firstPLSite(f)
	if site == nil {
		return ErrNoMechanism
	}
	if err := f.Deployer.Stock(0.5, f.Eng.Now(), f.Eng.Now()+time.Hour, site.Spec.Name); err != nil {
		return err
	}
	sm := f.User("probe-sm").Holder
	slice, err := f.Deployer.DeploySliceAtomic("probe-slice", sm, 0.5, f.Eng.Now(), f.Eng.Now()+time.Hour, []string{site.Spec.Name})
	if err != nil {
		return err
	}
	defer slice.StopAll()
	ran := false
	if _, err := slice.VM(site.Runtime.Node.Name).Exec("probe", 0.1, func() { ran = true }); err != nil {
		return err
	}
	f.Eng.RunUntil(f.Eng.Now() + time.Minute)
	if !ran {
		return fmt.Errorf("core: VM task never ran")
	}
	return nil
}

func probeReservation(f *Federation) error {
	if gs := globusSites(f); len(gs) > 0 {
		// A reservation needs a site whose policy honours them.
		for _, s := range gs {
			if !s.Spec.Policy.HonourReservations {
				continue
			}
			_, err := s.Batch.Reserve(f.Eng.Now()+time.Hour, time.Hour, 1)
			return err
		}
		return fmt.Errorf("%w: no member site honours reservations", ErrNoMechanism)
	}
	site := firstPLSite(f)
	if site == nil {
		return ErrNoMechanism
	}
	// A future-dated dedicated capability IS an advance reservation.
	c, err := site.Runtime.NM.Mint(capability.MintRequest{
		Type: capability.CPU, Amount: 0.5, Dedicated: true,
		NotBefore: f.Eng.Now() + time.Hour, NotAfter: f.Eng.Now() + 2*time.Hour,
	})
	if err != nil {
		return err
	}
	site.Runtime.NM.Release(c.ID)
	return nil
}

func probeCoAllocation(f *Federation) error {
	if gs := globusSites(f); len(gs) >= 2 {
		user := f.User("probe-user")
		proxy, err := user.Delegate("probe-user/proxy2", f.Eng.Now(), 12*time.Hour, nil, f.Rng)
		if err != nil {
			return err
		}
		var got error
		done := false
		f.CoAlloc.CoAllocate(proxy, []broker.Part{
			{Gatekeeper: gs[0].Host, Spec: gram.JobSpec{RSL: `&(executable=a)(count=1)(maxWallTime=60)`, ActualRun: 10 * time.Second}},
			{Gatekeeper: gs[1].Host, Spec: gram.JobSpec{RSL: `&(executable=b)(count=1)(maxWallTime=60)`, ActualRun: 10 * time.Second}},
		}, func(_ []broker.Placement, e error) { got, done = e, true })
		f.Eng.RunUntil(f.Eng.Now() + 5*time.Minute)
		if !done {
			return fmt.Errorf("core: co-allocation never completed")
		}
		return got
	}
	pls := plSites(f)
	if len(pls) < 2 {
		return ErrNoMechanism
	}
	names := []string{pls[0].Spec.Name, pls[1].Spec.Name}
	if err := f.Deployer.Stock(0.5, f.Eng.Now(), f.Eng.Now()+time.Hour, names...); err != nil {
		return err
	}
	sm := f.User("probe-sm2").Holder
	slice, err := f.Deployer.DeploySliceAtomic("probe-coalloc", sm, 0.5, f.Eng.Now(), f.Eng.Now()+time.Hour, names)
	if err != nil {
		return err
	}
	slice.StopAll()
	return nil
}

func probeIdentityDelegation(f *Federation) error {
	if len(globusSites(f)) > 0 {
		user := f.User("probe-user")
		proxy, err := user.Delegate("probe-user/proxy3", f.Eng.Now(), 12*time.Hour, nil, f.Rng)
		if err != nil {
			return err
		}
		var placed broker.Placement
		var got error
		done := false
		f.Matchmaker.SubmitJob(proxy, gram.JobSpec{
			RSL: `&(executable=/bin/whoami)(maxWallTime=60)`, ActualRun: time.Second,
		}, nil, func(p broker.Placement, e error) { placed, got, done = p, e, true })
		f.Eng.RunUntil(f.Eng.Now() + 5*time.Minute)
		if !done || got != nil {
			return fmt.Errorf("core: delegated submission failed: %v", got)
		}
		// The defining property: the job is attributed to the user, not
		// the broker.
		for _, s := range globusSites(f) {
			if s.Host == placed.Gatekeeper {
				if owner := s.Gatekeeper.Job(placed.JobID).Spec.Owner; owner != "probe-user" {
					return fmt.Errorf("core: job attributed to %q", owner)
				}
				return nil
			}
		}
		return fmt.Errorf("core: placement site not found")
	}
	// "PlanetLab currently does not provide a mechanism for identity
	// delegation."
	return fmt.Errorf("%w: identity delegation", ErrNoMechanism)
}

func probeUsageDelegation(f *Federation) error {
	site := firstPLSite(f)
	if site == nil {
		// Stock Globus delegates identities, not resource rights: "Most
		// current Globus compatible resource schedulers employ identity
		// delegation only."
		return fmt.Errorf("%w: resource usage delegation", ErrNoMechanism)
	}
	auth := site.Runtime.Authority
	agent := f.Deployer.Agent
	tk, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 0.25, f.Eng.Now(), f.Eng.Now()+time.Hour)
	if err != nil {
		return err
	}
	if err := agent.Acquire(tk); err != nil {
		return err
	}
	third := f.User("probe-third").Holder
	subs, err := agent.Sell(third.Name, third.Public(), site.Spec.Name, capability.CPU, 0.25, f.Eng.Now(), f.Eng.Now()+time.Hour)
	if err != nil {
		return err
	}
	lease, err := auth.Redeem(subs[0])
	if err != nil {
		return err
	}
	auth.ReleaseLease(lease)
	return nil
}

func probeFineGrained(f *Federation) error {
	site := firstPLSite(f)
	if site == nil {
		// Batch slots are whole machines; "fine-grained resource control
		// ... shockingly weak in deployed systems."
		return fmt.Errorf("%w: sub-node allocation", ErrNoMechanism)
	}
	c, err := site.Runtime.NM.Mint(capability.MintRequest{
		Type: capability.CPU, Amount: 0.1, Dedicated: true,
		NotBefore: f.Eng.Now(), NotAfter: f.Eng.Now() + time.Hour,
	})
	if err != nil {
		return err
	}
	defer site.Runtime.NM.Release(c.ID)
	// The claim must be enforceable at the node: a context with that
	// dedicated share must run work at exactly that rate.
	ctx, err := site.Runtime.Node.NewContext("probe-fine", silk.ContextSpec{DedicatedCores: c.Amount})
	if err != nil {
		return err
	}
	defer ctx.Close()
	ran := false
	if _, err := ctx.RunTask("t", 0.05, func() { ran = true }); err != nil {
		return err
	}
	f.Eng.RunUntil(f.Eng.Now() + time.Minute)
	if !ran {
		return fmt.Errorf("core: fine-grained task never ran")
	}
	return nil
}

func probeUniformAPI(f *Federation) error {
	if pls := plSites(f); len(pls) > 0 {
		// Every node presents the identical mandated spec — that is the
		// uniformity guarantee.
		want := pls[0].Runtime.Node.Spec
		for _, s := range pls[1:] {
			if s.Runtime.Node.Spec != want {
				return fmt.Errorf("core: node spec diverges at %s", s.Spec.Name)
			}
		}
		return nil
	}
	// Globus interposes glue over per-site dialects; the operation is
	// possible but not uniform — the probe asks for uniformity.
	return fmt.Errorf("%w: heterogeneous local managers need glue", ErrNoMechanism)
}

func probeCentralUpdate(f *Federation) error {
	joined := f.JoinedSites()
	if len(joined) == 0 {
		return fmt.Errorf("core: no members")
	}
	for _, s := range joined {
		ceded := s.Spec.Policy.CedeSoftwareUpdates
		if s.Runtime != nil {
			ceded = true // PlanetLab membership implies ceding updates
		}
		if !ceded {
			return fmt.Errorf("%w: site %s controls its own software", ErrNoMechanism, s.Spec.Name)
		}
	}
	return nil
}

func probeVMInstantiation(f *Federation) error {
	site := firstPLSite(f)
	if site == nil {
		// "GT3 service interfaces are being defined ... for example the
		// creation and initialization of a new virtual machine" — being
		// defined, not present.
		return fmt.Errorf("%w: no VM abstraction", ErrNoMechanism)
	}
	if err := f.Deployer.Stock(0.25, f.Eng.Now(), f.Eng.Now()+24*time.Hour, site.Spec.Name); err != nil {
		return err
	}
	sm := f.User("probe-sm3").Holder
	slice, err := f.Deployer.DeploySliceAtomic("probe-pop", sm, 0.25, f.Eng.Now(), f.Eng.Now()+24*time.Hour, []string{site.Spec.Name})
	if err != nil {
		return err
	}
	defer slice.StopAll()
	v := slice.VM(site.Runtime.Node.Name)
	ctx, err := v.Ctx()
	if err != nil {
		return err
	}
	// Unix-style API surface: port + disk + fd.
	if err := ctx.OpenPort(8080); err != nil {
		return err
	}
	if err := ctx.WriteDisk(1 << 20); err != nil {
		return err
	}
	if err := ctx.OpenFD(); err != nil {
		return err
	}
	return nil
}

// FunctionalityReport is the outcome of running the probe suite.
type FunctionalityReport struct {
	Passed, Total int
	// Results maps probe name to nil or the failure.
	Results map[string]error
}

// Score returns the passed fraction.
func (r FunctionalityReport) Score() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Passed) / float64(r.Total)
}

// RunProbes executes the suite against the federation.
func RunProbes(f *Federation) FunctionalityReport {
	rep := FunctionalityReport{Results: make(map[string]error)}
	for _, p := range Probes() {
		err := p.Run(f)
		rep.Results[p.Name] = err
		rep.Total++
		if err == nil {
			rep.Passed++
		}
	}
	return rep
}
