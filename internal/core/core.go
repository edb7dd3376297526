// Package core is gridlab's reproduction of the paper's contribution: a
// framework that assembles the *same* wide-area substrate into either of
// the two resource-management architectures — Globus (GSI + GRAM + MDS +
// meta-schedulers over heterogeneous, autonomous sites) or PlanetLab
// (mandated node software, node managers minting capabilities, SHARP
// peering, VMs/slices) — and measures them under one probe suite, making
// the paper's qualitative comparisons (Figure 1, §3-§5) quantitative.
//
// The key modelling decision mirrors §3.4: a Site carries an
// AutonomyPolicy describing which controls it retains. Building the
// PlanetLab stack *requires* ceding specific controls ("by mandating the
// operating system ..., by allowing PlanetLab administrators 'root'
// access ..., and by giving PlanetLab administrators access to a remote
// power button"); sites that refuse simply do not join. Building the
// Globus stack accepts every site but inherits whatever functionality
// each site's policy leaves enabled. Functionality at the VO level is
// then measured by running real probe operations against the built
// federation — the two stacks' scores are emergent, not hard-coded.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stack selects which architecture a federation is built as.
type Stack int

// The architectures under comparison. StackHybrid layers Globus services
// over PlanetLab-managed nodes (§5).
const (
	StackGlobus Stack = iota
	StackPlanetLab
	StackHybrid
)

var stackNames = [...]string{"globus", "planetlab", "hybrid"}

func (s Stack) String() string {
	if int(s) < len(stackNames) {
		return stackNames[s]
	}
	return fmt.Sprintf("Stack(%d)", int(s))
}

// AutonomyPolicy enumerates the §3.4 site-control levers. Each boolean
// records whether the site CEDES that control to the federation (true =
// ceded). More ceded controls → lower autonomy, more uniform VO-level
// functionality.
type AutonomyPolicy struct {
	// CedeOSChoice: the site runs the federation-mandated OS image.
	CedeOSChoice bool
	// CedeRootAccess: federation administrators get root on nodes.
	CedeRootAccess bool
	// CedePowerControl: federation gets the remote power button.
	CedePowerControl bool
	// CedeSoftwareUpdates: central administrators push updates.
	CedeSoftwareUpdates bool
	// HonourReservations: the local scheduler accepts advance
	// reservations from outside (a site-specific usage policy).
	HonourReservations bool
	// OpenAccess: the site admits any VO-authenticated user; when false
	// it whitelists only users it has locally approved.
	OpenAccess bool
}

// Autonomy returns the Figure-1 x-coordinate: the fraction of controls
// the site retains, in [0,1].
func (p AutonomyPolicy) Autonomy() float64 {
	retained := 0.0
	if !p.CedeOSChoice {
		retained++
	}
	if !p.CedeRootAccess {
		retained++
	}
	if !p.CedePowerControl {
		retained++
	}
	if !p.CedeSoftwareUpdates {
		retained++
	}
	if !p.HonourReservations {
		retained++ // refusing external reservations is retained control
	}
	if !p.OpenAccess {
		retained++
	}
	return retained / 6
}

// AcceptsCentralControl reports whether the site's policy satisfies
// PlanetLab's non-negotiable requirements.
func (p AutonomyPolicy) AcceptsCentralControl() bool {
	return p.CedeOSChoice && p.CedeRootAccess && p.CedePowerControl && p.CedeSoftwareUpdates
}

// PlanetLabSitePolicy is the policy a PlanetLab member must run.
func PlanetLabSitePolicy() AutonomyPolicy {
	return AutonomyPolicy{
		CedeOSChoice:        true,
		CedeRootAccess:      true,
		CedePowerControl:    true,
		CedeSoftwareUpdates: true,
		HonourReservations:  true,
		OpenAccess:          true,
	}
}

// GlobusSitePolicy is a typical grid site: it joins the VO but retains
// every local control; reservations and open access depend on the site.
func GlobusSitePolicy(honourRes, openAccess bool) AutonomyPolicy {
	return AutonomyPolicy{HonourReservations: honourRes, OpenAccess: openAccess}
}

// GradedPolicy interpolates a site's autonomy demand alpha in [0,1] into
// a concrete policy: the more autonomy a site insists on, the fewer
// controls it cedes. Thresholds follow the natural ordering of how
// painful each concession is (software updates < reservations < power <
// root < OS choice; access control is the most jealously guarded).
func GradedPolicy(alpha float64) AutonomyPolicy {
	return AutonomyPolicy{
		CedeSoftwareUpdates: alpha < 0.55,
		HonourReservations:  alpha < 0.65,
		CedePowerControl:    alpha < 0.45,
		CedeRootAccess:      alpha < 0.35,
		CedeOSChoice:        alpha < 0.25,
		OpenAccess:          alpha < 0.75,
	}
}

// SiteSpec describes one site's physical contribution.
type SiteSpec struct {
	Name string
	X, Y float64
	// Nodes is the PlanetLab-side node count (each DefaultPlanetLabNode).
	Nodes int
	// ClusterSlots is the Globus-side batch machine size.
	ClusterSlots int
	Policy       AutonomyPolicy
}

// lineOf returns n copies of proto named fmt.Sprintf(name, i) and spaced
// dx apart along X, the first at x = dx.
func lineOf(n int, name string, dx float64, proto SiteSpec) []SiteSpec {
	specs := make([]SiteSpec, n)
	for i := range specs {
		specs[i] = proto
		specs[i].Name, specs[i].X = fmt.Sprintf(name, i), dx*float64(i+1)
	}
	return specs
}

// Site is one constructed member of a federation.
type Site struct {
	Spec SiteSpec
	// Joined reports whether the stack's requirements admitted the site.
	Joined bool
	// Host is the site's service host ("gk-<name>").
	Host string

	// Globus-side machinery (nil on a pure PlanetLab build or unjoined).
	Gatekeeper *gram.Gatekeeper
	Batch      *gram.BatchManager
	Gridmap    *gsi.Gridmap
	GRIS       *mds.GRIS
	// Policy is the gate the gatekeeper admits through: its verifier's
	// revocations and its trusted CAS keys are the site's own.
	Policy *gsi.SitePolicy

	// PlanetLab-side machinery (nil on a pure Globus build or unjoined).
	Runtime *broker.SiteRuntime
	// Sensors is the PlanetLab-side per-node monitoring pusher. It is held
	// here (not just scheduled) so engine snapshots can reach and rewind
	// its push state.
	Sensors *mds.GRIS
}

// Federation is a built two-stack testbed.
type Federation struct {
	Stack Stack
	Eng   *sim.Engine
	Net   *simnet.Network
	CA    *identity.CA
	Rng   *rand.Rand

	// Tracer is the federation-wide observability tracer, non-nil only
	// when the federation was built with Config.Trace. Every subsystem
	// (network, authorities, batch managers, deployer) shares it, so
	// spans nest causally across layers.
	Tracer *obs.Tracer

	// Resilience is the federation-wide retry/breaker/keepalive kit,
	// non-nil only when built with Config.Resilience. All layers share
	// the one kit, so its per-site breakers agree on a site's health.
	Resilience *resilience.Kit

	Sites []*Site
	// joined lists the Sites that joined, in build order; only Build
	// sets Site.Joined.
	joined []*Site

	// VO-level services; Index and Comon are root-less mds.RegionIndexes.
	IndexHost string
	Index     *mds.GIIS
	// Comon is the PlanetLab-side monitoring collector: per-node sensors
	// push soft-state snapshots here (the CoMon/Ganglia/Sophia role the
	// paper cites for "wide-area monitoring and instrumentation").
	Comon      *mds.GIIS
	Matchmaker *broker.Matchmaker
	CoAlloc    *broker.CoAllocator
	Deployer   *broker.Deployer

	users map[string]*identity.Credential

	// Fault bookkeeping (see faults.go).
	faultObs     []FaultObserver
	downSince    map[string]time.Duration
	downDeclared map[string]bool
	downLog      map[string][]DownInterval
}

// Config tunes federation construction.
type Config struct {
	Seed int64
	// RefreshInterval sets the MDS soft-state period (default 2m).
	RefreshInterval time.Duration
	// StopPushers, when set, stops the MDS pushers after the initial
	// registration so short experiments can drain the event queue.
	StopPushers bool
	// Trace enables the obs tracing/metrics layer: a Tracer is created,
	// bound to the engine, and installed into every subsystem built here.
	// Off (the default) costs nothing — all instrumentation is nil-gated.
	Trace bool
	// Resilience enables the fault-handling layer: deterministic
	// retry/backoff on transport faults, per-site circuit breakers shared
	// across the brokers, and (via servicemgr) lease-renewal keepalive.
	// Off (the default) reproduces the raw protocols byte for byte.
	Resilience bool
}

// Build assembles a federation of the given architecture over the sites.
func Build(stack Stack, cfg Config, specs []SiteSpec) *Federation {
	eng := sim.NewEngine(cfg.Seed)
	net := simnet.New(eng)
	rng := eng.ForkRand()
	if cfg.RefreshInterval == 0 {
		cfg.RefreshInterval = 2 * time.Minute
	}

	net.AddSite("vo-center", 0, 0)
	net.AddHost("vo-index", "vo-center", 1e7)
	net.AddHost("vo-broker", "vo-center", 1e7)
	net.AddHost("vo-comon", "vo-center", 1e7)

	f := &Federation{
		Stack: stack,
		Eng:   eng,
		Net:   net,
		CA:    identity.NewCA("vo-ca", 1e6*time.Hour, rng),
		Rng:   rng,
		users: make(map[string]*identity.Credential),
	}
	f.Index = mds.NewGIIS(eng, net, "vo-index")
	f.IndexHost = "vo-index"
	f.Comon = mds.NewGIIS(eng, net, "vo-comon")
	f.Matchmaker = &broker.Matchmaker{Net: net, Host: "vo-broker", Index: "vo-index", Timeout: time.Minute}
	f.CoAlloc = &broker.CoAllocator{Net: net, Host: "vo-broker", Timeout: time.Minute}
	f.Deployer = &broker.Deployer{
		Agent: sharp.NewAgent(identity.NewPrincipal("vo-agent", rng)),
		Sites: make(map[string]*broker.SiteRuntime),
	}
	if cfg.Trace {
		f.Tracer = obs.NewTracer(eng)
		f.Tracer.BindEngine()
		net.SetTracer(f.Tracer)
		f.Deployer.SetTracer(f.Tracer)
		f.CoAlloc.SetTracer(f.Tracer)
	}
	// The deployer always knows the fault surface: deploying "into" a
	// crashed site against its in-process authority would be a liveness
	// lie the real system could not tell.
	f.Deployer.SiteDown = f.SiteDown
	if cfg.Resilience {
		f.Resilience = resilience.NewKit(eng, eng.ForkRand(), f.Tracer)
		f.Deployer.Breakers = f.Resilience.Breakers
		f.Matchmaker.Resilience = f.Resilience
		f.Matchmaker.SiteOf = func(gk string) string {
			return strings.TrimPrefix(gk, "gk-")
		}
		f.CoAlloc.Retry = f.Resilience.Retry
	}

	var pushers []*mds.GRIS
	for _, spec := range specs {
		site := &Site{Spec: spec, Host: "gk-" + spec.Name}
		f.Sites = append(f.Sites, site)
		net.AddSite(spec.Name, spec.X, spec.Y)
		net.AddHost(site.Host, spec.Name, 1.25e7)

		wantsGlobus := stack == StackGlobus || stack == StackHybrid
		wantsPL := stack == StackPlanetLab || stack == StackHybrid
		if wantsPL && !spec.Policy.AcceptsCentralControl() {
			// The site refuses PlanetLab's terms. Under a pure PlanetLab
			// build it simply is not a member; under hybrid it degrades
			// to Globus-only membership.
			if stack == StackPlanetLab {
				site.Joined = false
				continue
			}
			wantsPL = false
		}
		site.Joined = true
		f.joined = append(f.joined, site)

		if wantsGlobus {
			site.Gridmap = gsi.NewGridmap()
			if !spec.Policy.OpenAccess {
				site.Gridmap.UseWhitelist = true
			}
			// Like its gridmap, a site's verifier (roots, revocations,
			// signature memo) is its own: no domain borrows another's proof.
			site.Policy = &gsi.SitePolicy{
				Auth:    &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(f.CA)},
				Gridmap: site.Gridmap,
			}
			site.Gatekeeper = gram.NewGatekeeper(net, net.Host(site.Host), site.Policy)
			slots := spec.ClusterSlots
			if slots <= 0 {
				slots = 8
			}
			site.Batch = gram.NewBatchManager(eng, "batch", slots)
			if f.Tracer != nil {
				site.Batch.SetTracer(f.Tracer)
			}
			site.Gatekeeper.AddManager("batch", site.Batch)

			site.GRIS = mds.NewGRIS(eng, net, site.Host)
			host, slotsStr := site.Host, fmt.Sprint(slots)
			reservable := fmt.Sprint(spec.Policy.HonourReservations)
			site.GRIS.AddProviderInto(site.Host+"/cluster", func(attrs map[string]string) {
				attrs["gatekeeper"] = host
				attrs["os"] = "linux"
				attrs["cpus"] = slotsStr
				attrs["reservable"] = reservable
				attrs["jobmanager"] = "batch"
			})
			site.GRIS.StartPush("vo-index", cfg.RefreshInterval)
			pushers = append(pushers, site.GRIS)
		}

		if wantsPL {
			nodes := spec.Nodes
			if nodes <= 0 {
				nodes = 2
			}
			nodeSpec := silk.DefaultPlanetLabNode()
			node := silk.NewNode(eng, spec.Name+"/n0", nodeSpec)
			nm := capability.NewNodeManager(spec.Name+"/n0", eng, rng, map[capability.ResourceType]float64{
				capability.CPU:     nodeSpec.Cores,
				capability.Network: nodeSpec.NetBps,
				capability.Memory:  nodeSpec.MemBytes,
				capability.Disk:    nodeSpec.DiskBytes,
			})
			auth := sharp.NewAuthority(eng, spec.Name,
				identity.NewPrincipal("auth@"+spec.Name, rng), nm,
				map[capability.ResourceType]float64{capability.CPU: nodeSpec.Cores})
			if f.Tracer != nil {
				auth.SetTracer(f.Tracer)
			}
			site.Runtime = &broker.SiteRuntime{Authority: auth, NM: nm, Node: node}
			f.Deployer.Sites[spec.Name] = site.Runtime

			// Per-node sensor: a slice-count/port snapshot pushed to the
			// central collector, one record per node.
			sensors := mds.NewGRIS(eng, net, site.Host)
			siteName := spec.Name
			for ni := 0; ni < nodes; ni++ {
				nodeName := fmt.Sprintf("%s/n%d", siteName, ni)
				sensors.AddProviderInto(nodeName+"/sensor", func(attrs map[string]string) {
					attrs["site"] = siteName
					attrs["node"] = nodeName
					attrs["slices"] = strconv.Itoa(node.Contexts())
					attrs["ports"] = strconv.Itoa(node.PortsInUse())
				})
			}
			sensors.StartPush("vo-comon", cfg.RefreshInterval)
			site.Sensors = sensors
			pushers = append(pushers, sensors)
		}
	}

	// Let initial MDS registrations land.
	eng.RunUntil(time.Second)
	if cfg.StopPushers {
		for _, g := range pushers {
			g.Stop()
		}
	}
	// The federation is the mega-root for engine snapshots: every stateful
	// layer built here (network, MDS, batch managers, authorities,
	// resilience kit, fault bookkeeping) hangs off it.
	eng.SnapRoot("core.federation", f)
	return f
}

// User returns (creating on first use) a CA-certified user credential,
// mapped into every joined Globus site's gridmap (and whitelisted where
// the site runs closed access — the probe user is locally approved).
func (f *Federation) User(name string) *identity.Credential {
	if cred, ok := f.users[name]; ok {
		return cred
	}
	p := identity.NewPrincipal(name, f.Rng)
	cred := identity.UserCredential(p, f.CA.IssueUser(p, 0, 1e5*time.Hour))
	f.users[name] = cred
	for _, s := range f.Sites {
		if s.Gridmap != nil {
			s.Gridmap.Map(name, "u-"+name)
			if s.Gridmap.UseWhitelist {
				s.Gridmap.Whitelist(name)
			}
		}
	}
	return cred
}

// JoinedSites returns a copy of the members that actually joined.
func (f *Federation) JoinedSites() []*Site { return slices.Clone(f.joined) }

// EachJoinedSite calls fn with each member that joined, in build order,
// without copying the list.
func (f *Federation) EachJoinedSite(fn func(*Site)) {
	for _, s := range f.joined {
		fn(s)
	}
}

// MeanAutonomy returns the average autonomy retained across ALL candidate
// sites under this stack's terms: joined PlanetLab members retain only
// what PlanetLab's mandated policy leaves; joined Globus members retain
// their own policy; refused sites retain full autonomy but contribute
// nothing (they still count toward the x-axis as written — the paper's
// axes describe members, so refused sites are excluded here).
func (f *Federation) MeanAutonomy() float64 {
	if len(f.joined) == 0 {
		return 1
	}
	total := 0.0
	for _, s := range f.joined {
		switch {
		case f.Stack == StackPlanetLab,
			f.Stack == StackHybrid && s.Runtime != nil:
			total += PlanetLabSitePolicy().Autonomy()
		default:
			total += s.Spec.Policy.Autonomy()
		}
	}
	return total / float64(len(f.joined))
}

// Participation is the fraction of candidate sites that joined.
func (f *Federation) Participation() float64 {
	if len(f.Sites) == 0 {
		return 0
	}
	return float64(len(f.joined)) / float64(len(f.Sites))
}
