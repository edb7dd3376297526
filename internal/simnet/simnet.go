// Package simnet models the wide-area network that both the Globus and
// PlanetLab stacks ride on: hosts grouped into sites, propagation latency
// derived from site coordinates, per-host access-link bandwidth shared
// max-min fairly among flows, loss-limited TCP throughput (Mathis model),
// message loss, and site partitions.
//
// simnet exposes two planes:
//
//   - a control plane of small messages (Send / Call RPC) used by every
//     middleware protocol, with per-host counters so experiments can report
//     control messages per operation; and
//   - a data plane of bulk flows (StartFlow) used by the data-grid
//     experiments, built on the sim fluid-sharing model.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Common errors returned by the control plane.
var (
	ErrTimeout      = errors.New("simnet: call timed out")
	ErrNoSuchHost   = errors.New("simnet: no such host")
	ErrNoHandler    = errors.New("simnet: no handler for service")
	ErrPartitioned  = errors.New("simnet: sites partitioned")
	ErrHostDown     = errors.New("simnet: host down")
	ErrZeroCapacity = errors.New("simnet: zero-capacity path")
)

// IsTransient reports whether a control-plane error is worth retrying:
// timeouts, partitions, and down hosts all heal (or a circuit breaker
// gives up first), while refusals — no such host, no handler, and
// application errors — are answers, not outages.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrPartitioned) || errors.Is(err, ErrHostDown)
}

// Site is a named location with coordinates in "latency space": the
// propagation delay between two sites is the Euclidean distance between
// their coordinates, interpreted in milliseconds, plus 1ms.
type Site struct {
	Name string
	X, Y float64
}

// Handler serves a control-plane request and returns a response.
// Returning an error delivers the error string to the caller.
type Handler func(from string, req any) (any, error)

// Host is a network endpoint. Hosts belong to a site, have finite
// access-link capacity in each direction, and register named service
// handlers for the RPC plane.
type Host struct {
	Name string
	Site string

	net      *Network
	up, down *sim.FluidResource
	handlers map[string]Handler
	downFlag bool

	// MsgsSent and MsgsRecv count control-plane messages (requests and
	// responses separately), for the E3 scale experiment.
	MsgsSent, MsgsRecv uint64
	// BytesSent counts data-plane bytes originated by this host.
	BytesSent float64
}

// Network is the simulated WAN.
type Network struct {
	eng   *sim.Engine
	flows *sim.FluidSystem
	rng   *rand.Rand

	sites map[string]*Site
	hosts map[string]*Host

	latOverride map[[2]string]time.Duration
	lossRate    map[[2]string]float64
	partitioned map[[2]string]bool
	active      map[*Flow]struct{}
	flowSeq     uint64

	// calls tracks in-flight RPCs. The per-call state (settled flag,
	// pending timeout handle) must live on a struct reachable from the
	// Network — not in closure captures — so engine snapshots taken while
	// calls are in flight restore them exactly (see sim/snap.go).
	calls map[*call]struct{}

	// BaseLoss is the default packet-loss probability on any inter-site
	// path (intra-site paths are lossless).
	BaseLoss float64
	// MTU is the TCP segment size used by the Mathis throughput model.
	MTU float64

	// Trace, when non-nil, receives a line per control-plane delivery.
	Trace func(format string, args ...any)

	// tr, when non-nil, records causal spans and counters for every
	// control-plane message and data flow. All counter handles below are
	// nil (and inert) when tracing is off, so the hot paths pay only a
	// nil check.
	tr                                   *obs.Tracer
	cSent, cRecv                         *obs.Counter
	cDropLoss, cDropPartition, cDropDown *obs.Counter
	cCallTimeout, cCallRefused           *obs.Counter
	cFlowStart, cFlowDone                *obs.Counter
	cFlowFail, cFlowAbort                *obs.Counter
	hCallRTT                             *obs.Hist
}

// New returns an empty network bound to the engine.
func New(eng *sim.Engine) *Network {
	return &Network{
		eng:         eng,
		flows:       sim.NewFluidSystem(eng),
		rng:         eng.ForkRand(),
		sites:       make(map[string]*Site),
		hosts:       make(map[string]*Host),
		latOverride: make(map[[2]string]time.Duration),
		lossRate:    make(map[[2]string]float64),
		partitioned: make(map[[2]string]bool),
		active:      make(map[*Flow]struct{}),
		calls:       make(map[*call]struct{}),
		MTU:         1460,
	}
}

// Engine returns the simulation engine the network is bound to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// SetTracer installs (or, with nil, removes) the observability layer:
// control-plane sends and calls become causally linked spans, and the
// message/flow/drop counters register on the tracer's registry.
func (n *Network) SetTracer(tr *obs.Tracer) {
	n.tr = tr
	n.cSent = tr.Counter("net.msgs_sent")
	n.cRecv = tr.Counter("net.msgs_recv")
	n.cDropLoss = tr.Counter("net.drop.loss")
	n.cDropPartition = tr.Counter("net.drop.partition")
	n.cDropDown = tr.Counter("net.drop.host_down")
	n.cCallTimeout = tr.Counter("net.call.timeout")
	n.cCallRefused = tr.Counter("net.call.refused")
	n.cFlowStart = tr.Counter("net.flows.started")
	n.cFlowDone = tr.Counter("net.flows.done")
	n.cFlowFail = tr.Counter("net.flows.failed")
	n.cFlowAbort = tr.Counter("net.flows.aborted")
	n.hCallRTT = tr.Hist("net.call.rtt")
}

// Tracer returns the installed tracer (nil when tracing is off).
func (n *Network) Tracer() *obs.Tracer { return n.tr }

// dropCounter maps a deliverability error to its drop counter.
func (n *Network) dropCounter(err error) *obs.Counter {
	switch {
	case errors.Is(err, ErrPartitioned):
		return n.cDropPartition
	case errors.Is(err, ErrHostDown):
		return n.cDropDown
	default:
		return nil
	}
}

// AddSite registers a site at the given latency-space coordinates.
func (n *Network) AddSite(name string, x, y float64) *Site {
	if _, dup := n.sites[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate site %q", name))
	}
	s := &Site{Name: name, X: x, Y: y}
	n.sites[name] = s
	return s
}

// AddHost registers a host at a site with symmetric access-link capacity
// in bytes/second.
func (n *Network) AddHost(name, site string, linkBps float64) *Host {
	if _, dup := n.hosts[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate host %q", name))
	}
	if _, ok := n.sites[site]; !ok {
		panic(fmt.Sprintf("simnet: host %q references unknown site %q", name, site))
	}
	h := &Host{
		Name:     name,
		Site:     site,
		net:      n,
		up:       n.flows.NewResource(name+"/up", linkBps),
		down:     n.flows.NewResource(name+"/down", linkBps),
		handlers: make(map[string]Handler),
	}
	n.hosts[name] = h
	return h
}

// Host returns a host by name, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// ActiveFlows returns the number of flows currently in progress — the
// balancing term in the started = done + failed + aborted + active
// conservation identity the counters maintain.
func (n *Network) ActiveFlows() int { return len(n.active) }

// SetDown marks a host as failed (true) or recovered (false). Messages to
// and from a down host are dropped, and in-flight flows whose path
// touches the host are killed (their OnFail fires).
func (n *Network) SetDown(host string, down bool) {
	h := n.hosts[host]
	if h == nil {
		panic(fmt.Sprintf("simnet: SetDown on unknown host %q", host))
	}
	h.downFlag = down
	if !down {
		return
	}
	victims := n.victims(func(f *Flow) bool { return f.hosts[host] })
	for _, f := range victims {
		f.fail(fmt.Errorf("%w: %s", ErrHostDown, host))
	}
}

// victims collects active flows matching pred in creation order, so kill
// callbacks fire in a deterministic sequence regardless of map iteration.
func (n *Network) victims(pred func(*Flow) bool) []*Flow {
	var out []*Flow
	for f := range n.active {
		if pred(f) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetLatency overrides the site-to-site propagation latency. In-flight
// streams crossing the pair have their Mathis rate cap re-derived from
// the new RTT.
func (n *Network) SetLatency(siteA, siteB string, d time.Duration) {
	key := pairKey(siteA, siteB)
	n.latOverride[key] = d
	n.retune(key)
}

// SetLoss sets the packet-loss probability between two sites, overriding
// BaseLoss for that pair. In-flight streams crossing the pair are
// re-capped at the Mathis limit for the new loss rate — a mid-transfer
// loss burst slows live flows, not just future ones.
func (n *Network) SetLoss(siteA, siteB string, p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("simnet: loss %v out of range [0,1)", p))
	}
	key := pairKey(siteA, siteB)
	n.lossRate[key] = p
	n.retune(key)
}

// ClearLoss removes a SetLoss override, restoring BaseLoss for the pair —
// the revocation half of a loss-burst fault. Live streams recover their
// pre-burst rate cap.
func (n *Network) ClearLoss(siteA, siteB string) {
	key := pairKey(siteA, siteB)
	delete(n.lossRate, key)
	n.retune(key)
}

// ClearLatency removes a SetLatency override, restoring the
// coordinate-derived propagation delay and re-capping live streams.
func (n *Network) ClearLatency(siteA, siteB string) {
	key := pairKey(siteA, siteB)
	delete(n.latOverride, key)
	n.retune(key)
}

// retune pushes the current Mathis limit into every live stream whose
// path crosses the given site pair, in flow-creation order for
// determinism.
func (n *Network) retune(key [2]string) {
	victims := n.victims(func(f *Flow) bool {
		for _, c := range f.order {
			if f.pathOf[c].crosses(key) {
				return true
			}
		}
		return false
	})
	for _, f := range victims {
		f.retune(key)
	}
}

// Partition cuts (or heals, with false) connectivity between two sites.
// Cutting also severs the in-flight data streams crossing the pair:
// non-pooled striped flows fail outright (OnFail fires — they must not
// hang), pooled flows restripe the severed backlog onto a surviving path
// and fail only when no path survives.
func (n *Network) Partition(siteA, siteB string, cut bool) {
	key := pairKey(siteA, siteB)
	n.partitioned[key] = cut
	if !cut {
		return
	}
	victims := n.victims(func(f *Flow) bool {
		for _, c := range f.order {
			if f.pathOf[c].crosses(key) {
				return true
			}
		}
		return false
	})
	for _, f := range victims {
		f.partitionCut(key)
	}
}

// Latency returns the one-way propagation delay between two sites.
func (n *Network) Latency(siteA, siteB string) time.Duration {
	if siteA == siteB {
		return 500 * time.Microsecond
	}
	if d, ok := n.latOverride[pairKey(siteA, siteB)]; ok {
		return d
	}
	a, b := n.sites[siteA], n.sites[siteB]
	if a == nil || b == nil {
		panic(fmt.Sprintf("simnet: latency between unknown sites %q,%q", siteA, siteB))
	}
	dx, dy := a.X-b.X, a.Y-b.Y
	ms := math.Sqrt(dx*dx+dy*dy) + 1
	return time.Duration(ms * float64(time.Millisecond))
}

// Loss returns the packet-loss probability between two sites.
func (n *Network) Loss(siteA, siteB string) float64 {
	if siteA == siteB {
		return 0
	}
	if p, ok := n.lossRate[pairKey(siteA, siteB)]; ok {
		return p
	}
	return n.BaseLoss
}

// Partitioned reports whether the two sites are currently cut off.
func (n *Network) Partitioned(siteA, siteB string) bool {
	if siteA == siteB {
		return false
	}
	return n.partitioned[pairKey(siteA, siteB)]
}

// RTT returns the round-trip time between two hosts.
func (n *Network) RTT(hostA, hostB string) time.Duration {
	a, b := n.hosts[hostA], n.hosts[hostB]
	if a == nil || b == nil {
		panic(fmt.Sprintf("simnet: RTT between unknown hosts %q,%q", hostA, hostB))
	}
	return 2 * n.Latency(a.Site, b.Site)
}

// Handle registers (or replaces) the handler for a named service on the
// host.
func (h *Host) Handle(service string, fn Handler) {
	if fn == nil {
		panic("simnet: nil handler")
	}
	h.handlers[service] = fn
}

// Down reports whether the host is marked failed.
func (h *Host) Down() bool { return h.downFlag }

// LinkBps returns the host's access-link capacity in bytes/second.
func (h *Host) LinkBps() float64 { return h.up.Capacity() }

// deliverable reports whether a message can travel from a to b now, and
// the latency it would experience.
func (n *Network) deliverable(a, b *Host) (time.Duration, error) {
	if a == nil || b == nil {
		return 0, ErrNoSuchHost
	}
	if a.downFlag || b.downFlag {
		return 0, ErrHostDown
	}
	if n.Partitioned(a.Site, b.Site) {
		return 0, ErrPartitioned
	}
	return n.Latency(a.Site, b.Site), nil
}

// Send delivers a one-way message to a service on the destination host.
// Delivery is best-effort: loss, partitions and down hosts silently drop
// it (like a UDP datagram). The handler's response, if any, is discarded.
func (n *Network) Send(from, to, service string, msg any) {
	a, b := n.hosts[from], n.hosts[to]
	lat, err := n.deliverable(a, b)
	if err != nil {
		n.dropCounter(err).Inc()
		return
	}
	span := n.msgSpan("net.send", from, to, service)
	a.MsgsSent++
	n.cSent.Inc()
	if n.rng.Float64() < n.Loss(a.Site, b.Site) {
		n.cDropLoss.Inc()
		span.End(obs.String("drop", "loss"))
		return // dropped in flight
	}
	// The one allocation of a message: span is never reassigned, so the
	// closure holds it by value, and the host names ride in a and b.
	n.eng.Schedule(lat, func() { n.deliver(a, b, span, service, msg) })
}

// msgSpan opens the span of a Send or a Call: the zero context when
// tracing is off.
func (n *Network) msgSpan(name, from, to, service string) obs.SpanContext {
	if n.tr == nil {
		return obs.SpanContext{}
	}
	return n.tr.Begin(name,
		obs.String("from", from), obs.String("to", to), obs.String("svc", service))
}

// deliver lands one Send at b. Down-host and partition state are both
// rechecked at delivery time: a cut that lands while the message is in
// flight severs it, exactly as it severs in-flight data flows.
func (n *Network) deliver(a, b *Host, span obs.SpanContext, service string, msg any) {
	if b.downFlag || n.Partitioned(a.Site, b.Site) {
		if b.downFlag {
			n.cDropDown.Inc()
			span.End(obs.String("drop", "host_down"))
		} else {
			n.cDropPartition.Inc()
			span.End(obs.String("drop", "partition"))
		}
		return
	}
	b.MsgsRecv++
	n.cRecv.Inc()
	if n.Trace != nil {
		n.Trace("%v  %s -> %s  %s", n.eng.Now(), a.Name, b.Name, service)
	}
	if fn, ok := b.handlers[service]; ok {
		// The handler runs under the delivery span, so spans it opens
		// (and messages it sends) are causal children of this message.
		if n.tr != nil {
			n.tr.Scope(span, func() { fn(a.Name, msg) })
		} else {
			fn(a.Name, msg) // response discarded for one-way sends
		}
	}
	span.End()
}

// Call performs a request/response RPC and invokes done exactly once with
// the result. Lost requests or responses surface as ErrTimeout after the
// deadline. Calls are asynchronous because the kernel is event-driven;
// CallSync in package rpcutil-style wrappers is intentionally absent.
func (n *Network) Call(from, to, service string, req any, timeout time.Duration, done func(resp any, err error)) {
	if done == nil {
		panic("simnet: nil completion for Call")
	}
	a, b := n.hosts[from], n.hosts[to]
	lat, err := n.deliverable(a, b)
	if err != nil {
		n.dropCounter(err).Inc()
		n.eng.Schedule(0, func() { done(nil, err) })
		return
	}
	c := &call{n: n, a: a, start: n.eng.Now(), done: done, span: n.msgSpan("net.call", from, to, service)}
	n.calls[c] = struct{}{}
	if timeout > 0 {
		c.timeoutEv = n.eng.Schedule(timeout, func() { c.finish(nil, ErrTimeout) })
	}
	a.MsgsSent++
	n.cSent.Inc()
	if n.rng.Float64() < n.Loss(a.Site, b.Site) {
		n.cDropLoss.Inc()
		if timeout <= 0 {
			c.drop() // nothing can ever settle it
		}
		return // request lost; timeout will fire
	}
	n.eng.Schedule(lat, func() {
		if b.downFlag {
			n.cDropDown.Inc()
			return
		}
		b.MsgsRecv++
		n.cRecv.Inc()
		if n.Trace != nil {
			n.Trace("%v  %s -> %s  %s (call)", n.eng.Now(), from, to, service)
		}
		fn, ok := b.handlers[service]
		if !ok {
			// "Connection refused" is observable, unlike loss, so no loss
			// draw — but the reply is still a control message travelling
			// back, so it is counted and a crashed caller never sees it.
			b.MsgsSent++
			n.cSent.Inc()
			n.eng.Schedule(lat, func() {
				if a.downFlag {
					n.cDropDown.Inc()
					return
				}
				a.MsgsRecv++
				n.cRecv.Inc()
				c.finish(nil, ErrNoHandler)
			})
			return
		}
		// The handler runs under the call span: spans it opens become
		// request→handler→response children of this RPC.
		var resp any
		var herr error
		if n.tr != nil {
			n.tr.Scope(c.span, func() { resp, herr = fn(from, req) })
		} else {
			resp, herr = fn(from, req)
		}
		b.MsgsSent++
		n.cSent.Inc()
		if n.rng.Float64() < n.Loss(a.Site, b.Site) {
			n.cDropLoss.Inc()
			if timeout <= 0 {
				c.drop() // response lost with no timeout: never settles
			}
			return // response lost
		}
		n.eng.Schedule(lat, func() {
			if a.downFlag {
				n.cDropDown.Inc()
				return
			}
			a.MsgsRecv++
			n.cRecv.Inc()
			c.finish(resp, herr)
		})
	})
}

// call is one in-flight RPC. Keeping its mutable state in fields (rather
// than closure-captured locals) makes in-flight calls part of the
// snapshot-restorable object graph.
type call struct {
	n         *Network
	a         *Host // caller, for delivery checks
	span      obs.SpanContext
	start     time.Duration
	done      func(resp any, err error)
	finished  bool
	timeoutEv sim.Event
}

// finish settles the call exactly once.
func (c *call) finish(resp any, err error) {
	if c.finished {
		return
	}
	c.finished = true
	delete(c.n.calls, c)
	// Cancel the pending timeout so completed calls do not leave dead
	// events in the heap (Cancel on the fired timeout is a no-op).
	c.n.eng.Cancel(c.timeoutEv)
	if c.n.tr != nil {
		switch {
		case errors.Is(err, ErrTimeout):
			c.n.cCallTimeout.Inc()
		case errors.Is(err, ErrNoHandler):
			c.n.cCallRefused.Inc()
		}
		c.n.hCallRTT.Observe(c.n.eng.Now() - c.start)
		c.span.End(obs.Err(err))
	}
	c.done(resp, err)
}

// drop abandons a call that can never settle (lost with no timeout armed)
// so it does not accumulate in the in-flight set.
func (c *call) drop() {
	c.finished = true
	delete(c.n.calls, c)
}
