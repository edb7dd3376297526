package faultlab

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Injector binds a schedule to a running network and, when there is one,
// the federation above it. Every fault becomes a sim.Window, so each is
// applied and revoked exactly once no matter how the run ends (naturally,
// or force-healed by HealAll).
type Injector struct {
	net     *simnet.Network
	fed     *core.Federation // nil on a bare network
	sched   *Schedule
	windows []*sim.Window
	trace   []FaultEvent

	// AppliedN and RevokedN count fault activations for reporting.
	AppliedN, RevokedN int
}

// Install schedules every fault of sched against the federation and
// returns the injector handle. Faults targeting unjoined or unknown sites
// degrade to no-ops inside core's fault surface.
func Install(f *core.Federation, sched *Schedule) *Injector {
	return install(f.Net, f, sched)
}

// InstallNet schedules sched's network faults against a bare network —
// no federation required. Workload scenarios that drive the data plane
// directly (the overlay CDN) reuse the same generated schedules as the
// full chaos harness; the node, site and skew fault classes are skipped,
// since there is no management plane to crash.
func InstallNet(net *simnet.Network, sched *Schedule) *Injector {
	return install(net, nil, sched)
}

func install(net *simnet.Network, fed *core.Federation, sched *Schedule) *Injector {
	inj := &Injector{net: net, fed: fed, sched: sched}
	eng := net.Engine()
	for i := range sched.Faults {
		ft := sched.Faults[i]
		apply, revoke := inj.actions(ft)
		if apply == nil {
			continue
		}
		w := eng.NewWindow(ft.At, ft.Duration,
			func() {
				inj.AppliedN++
				inj.trace = append(inj.trace, FaultEvent{At: eng.Now(), Fault: ft})
				apply()
			},
			func() {
				inj.RevokedN++
				inj.trace = append(inj.trace, FaultEvent{At: eng.Now(), Revoke: true, Fault: ft})
				revoke()
			})
		inj.windows = append(inj.windows, w)
	}
	return inj
}

// actions maps a fault to its apply/revoke pair, or (nil, nil) for a
// class that needs a federation when there is none.
func (inj *Injector) actions(ft Fault) (apply, revoke func()) {
	n, f := inj.net, inj.fed
	switch ft.Kind {
	case NetPartition:
		return func() { n.Partition(ft.Site, ft.Peer, true) },
			func() { n.Partition(ft.Site, ft.Peer, false) }
	case LossBurst:
		return func() { n.SetLoss(ft.Site, ft.Peer, ft.Loss) },
			func() { n.ClearLoss(ft.Site, ft.Peer) }
	case LatencyChurn:
		return func() { n.SetLatency(ft.Site, ft.Peer, ft.Latency) },
			func() { n.ClearLatency(ft.Site, ft.Peer) }
	}
	if f == nil {
		return nil, nil // what is left needs a management plane
	}
	switch ft.Kind {
	case NodeCrash:
		return func() { f.CrashNode(ft.Site) }, func() { f.RestoreSite(ft.Site) }
	case SiteOutage:
		return func() { f.CrashSite(ft.Site) }, func() { f.RestoreSite(ft.Site) }
	case ClockSkew:
		skew := func(d time.Duration) {
			s := f.SiteByName(ft.Site)
			if s == nil || s.Runtime == nil {
				return
			}
			s.Runtime.Authority.SetClockSkew(d)
		}
		return func() { skew(ft.Skew) }, func() { skew(0) }
	}
	panic(fmt.Sprintf("faultlab: unknown fault kind %v", ft.Kind))
}

// HealAll force-revokes every window: active faults are lifted now,
// not-yet-applied faults are cancelled. Used at horizon end so the
// convergence phase starts from a fully healed substrate.
func (inj *Injector) HealAll() {
	for _, w := range inj.windows {
		w.Revoke()
	}
}

// Trace returns the apply/revoke log in execution order.
func (inj *Injector) Trace() []FaultEvent { return slices.Clone(inj.trace) }

// FaultEvent is one entry of the injector's log: a fault applied, or
// revoked, at a virtual time. It is rendered only when printed.
type FaultEvent struct {
	At     time.Duration
	Revoke bool
	Fault  Fault
}

func (e FaultEvent) String() string {
	verb := "apply"
	if e.Revoke {
		verb = "revoke"
	}
	return fmt.Sprintf("t=%v %s %s", e.At, verb, e.Fault)
}
