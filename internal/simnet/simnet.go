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
//
// Every control message — a Post, a Call's request, its reply or its
// refusal — is one leg, and every leg follows one rule: it departs only
// if the sender counts it and the loss draw spares it, and it lands only
// if, on arrival, the receiver is still up and the two sites are still
// connected. A crash or a cut that happens while a leg is in flight drops
// it, exactly as it severs in-flight data flows. A leg is its own kernel
// event, recycled through a free list. Request and Serve are the typed
// face of Call and Handle: they own the one place an RPC payload is typed.
//
// Post is the one-way send, and Send is Post of an any. A Post of a T
// rides unboxed only to a Serve endpoint of the same request type T: the
// endpoint lends the leg from its own free list and the message reaches
// its handler without an interface. To anything else (a Handle, an
// endpoint of another type, or a handler swapped in while the leg flew)
// the message arrives boxed, as a Send's does.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	ErrPayload      = errors.New("simnet: wrong payload type")
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

func (fn Handler) serve(from string, req any) (any, error) { return fn(from, req) }

// An endpoint is what a host runs a service with: a Handler, or the typed
// endpoint Serve registers. serve takes the request boxed, as every Call
// and a Post to an endpoint of another type carry it.
type endpoint interface {
	serve(from string, req any) (any, error)
}

// A sink is an endpoint seen from its request type T: a Post of a T to it
// rides in one of its own legs and reaches its handler unboxed.
type sink[T any] interface {
	endpoint
	pool() *legPool[T]
	post(n *Network, span obs.SpanContext, from string, msg T)
}

// Host is a network endpoint. Hosts belong to a site, have finite
// access-link capacity in each direction, and register named service
// handlers for the RPC plane.
type Host struct {
	Name string
	Site string

	net       *Network
	up, down  *sim.FluidResource
	endpoints map[string]endpoint
	downFlag  bool

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

	// The legs of every boxed message: Calls, and Posts to no sink.
	legs legPool[any]

	// BaseLoss is the default packet-loss probability on any inter-site
	// path (intra-site paths are lossless).
	BaseLoss float64
	// MTU is the TCP segment size used by the Mathis throughput model.
	MTU float64

	// Messages dropped, by cause; calls settled by timeout or refusal;
	// data flows by outcome (flowSeq counts the started ones).
	drops                    [numCauses]uint64
	callTimeout, callRefused uint64
	flowsDone, flowsFailed   uint64

	// tr, when non-nil, records causal spans for every control-plane
	// message and data flow, and reads the counts above as net.* counters.
	tr       *obs.Tracer
	hCallRTT *obs.Hist
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
		MTU:         1460,
	}
}

// Engine returns the simulation engine the network is bound to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// SetTracer installs (or, with nil, removes) the observability layer:
// control-plane sends and calls become causally linked spans, and the
// message/flow/drop counts register as counters on the tracer.
func (n *Network) SetTracer(tr *obs.Tracer) {
	n.tr = tr
	tr.CounterFunc("net.msgs_sent", func() uint64 { return n.sumHosts(func(h *Host) uint64 { return h.MsgsSent }) })
	tr.CounterFunc("net.msgs_recv", func() uint64 { return n.sumHosts(func(h *Host) uint64 { return h.MsgsRecv }) })
	for c := range numCauses {
		tr.CounterFunc("net.drop."+c.String(), func() uint64 { return n.drops[c] })
	}
	tr.CounterFunc("net.call.timeout", func() uint64 { return n.callTimeout })
	tr.CounterFunc("net.call.refused", func() uint64 { return n.callRefused })
	tr.CounterFunc("net.flows.started", func() uint64 { return n.flowSeq })
	tr.CounterFunc("net.flows.done", func() uint64 { return n.flowsDone })
	tr.CounterFunc("net.flows.failed", func() uint64 { return n.flowsFailed })
	// Nothing aborts a flow; the committed traces still list the counter.
	tr.CounterFunc("net.flows.aborted", func() uint64 { return 0 })
	n.hCallRTT = tr.Hist("net.call.rtt")
}

// Tracer returns the installed tracer (nil when tracing is off).
func (n *Network) Tracer() *obs.Tracer { return n.tr }

// sumHosts totals one per-host count over every host.
func (n *Network) sumHosts(count func(*Host) uint64) uint64 {
	var sum uint64
	for _, h := range n.hosts {
		sum += count(h)
	}
	return sum
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
		Name:      name,
		Site:      site,
		net:       n,
		up:        n.flows.NewResource(name+"/up", linkBps),
		down:      n.flows.NewResource(name+"/down", linkBps),
		endpoints: make(map[string]endpoint),
	}
	n.hosts[name] = h
	return h
}

// Host returns a host by name, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// ActiveFlows returns the number of flows currently in progress — the
// balancing term in the started = done + failed + active conservation
// identity the counters maintain.
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
// path crosses the given site pair.
func (n *Network) retune(key [2]string) {
	for _, f := range n.crossing(key) {
		f.retune(key)
	}
}

// crossing collects the live flows with a stream whose path crosses the
// site pair, in flow-creation order for determinism.
func (n *Network) crossing(key [2]string) []*Flow {
	return n.victims(func(f *Flow) bool {
		for _, c := range f.order {
			if f.pathOf[c].crosses(key) {
				return true
			}
		}
		return false
	})
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
	for _, f := range n.crossing(key) {
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
	h.endpoints[service] = fn
}

// Down reports whether the host is marked failed.
func (h *Host) Down() bool { return h.downFlag }

// LinkBps returns the host's access-link capacity in bytes/second.
func (h *Host) LinkBps() float64 { return h.up.Capacity() }

// A dropCause says why a message never landed. Its String is both the
// net.drop.* counter suffix and the drop attribute of a Post's span.
type dropCause uint8

const (
	dropLoss dropCause = iota
	dropPartition
	dropDown
	numCauses
)

var causeNames = [numCauses]string{"loss", "partition", "host_down"}

func (c dropCause) String() string { return causeNames[c] }

// message is one control-plane leg in flight, less its body: a Post, a
// Call's request, or a Call's reply. It rides by value in a recycled leg,
// so in steady state a leg allocates nothing.
type message struct {
	from, to *Host
	span     obs.SpanContext // a Post's span; a Call's legs share c.span
	svc      string
	c        *call // the RPC this leg belongs to; nil for a Post
}

// depart is a new message's departure check: both hosts must exist and
// be up, and their sites connected. It returns the one-way latency, or
// the refusal, counted by cause.
func (n *Network) depart(a, b *Host) (time.Duration, error) {
	switch {
	case a == nil || b == nil:
		return 0, ErrNoSuchHost
	case a.downFlag:
		n.drops[dropDown]++
		return 0, ErrHostDown
	}
	if cause, cut := n.blocked(a, b); cut {
		n.drops[cause]++
		if cause == dropDown {
			return 0, ErrHostDown
		}
		return 0, ErrPartitioned
	}
	return n.Latency(a.Site, b.Site), nil
}

// blocked reports whether a message from a cannot reach b now, and why:
// b is down, or the two sites are cut apart.
func (n *Network) blocked(a, b *Host) (dropCause, bool) {
	switch {
	case b.downFlag:
		return dropDown, true
	case n.Partitioned(a.Site, b.Site):
		return dropPartition, true
	}
	return 0, false
}

// fly carries one leg: the sender counts it, a lossy leg draws against
// the path's loss rate, and the survivor lands after lat in a leg from p.
// A Call's reply departs at the instant its request landed, so that
// landing was its departure check.
func fly[T any](n *Network, p *legPool[T], m message, body T, lat time.Duration, lossy bool) {
	m.from.MsgsSent++
	if lossy && n.rng.Float64() < n.Loss(m.from.Site, m.to.Site) {
		n.drop(m, dropLoss)
		return
	}
	l := p.get()
	l.m, l.body = m, body
	n.eng.ScheduleFire(lat, l)
}

// legPool is a free list of zeroed legs, and how many legs it ever made.
// The network keeps one for boxed messages, and each Serve endpoint one
// for the messages posted to it.
type legPool[T any] struct {
	free []*leg[T]
	made int
}

func (p *legPool[T]) get() *leg[T] {
	if k := len(p.free) - 1; k >= 0 {
		// Clear the slot, or an abandoned leg stays pinned with its message.
		l := p.free[k]
		p.free[k], p.free = nil, p.free[:k]
		return l
	}
	p.made++
	return &leg[T]{pool: p}
}

// leg is one message's kernel event. The engine's node reaches it, so
// Snapshot captures a leg in flight and Fork rewinds it. Fire hands it
// back to its pool, emptied, before the message lands: a handler that
// sends again reuses it.
type leg[T any] struct {
	m    message
	body T
	pool *legPool[T]
}

func (l *leg[T]) Fire() {
	m, body := l.m, l.body
	*l = leg[T]{pool: l.pool}
	l.pool.free = append(l.pool.free, l)
	land(m.from.net, m, body)
}

// land is every leg's arrival. The receiver and the cut are checked
// again: one that went down, or a cut that landed, while the leg was in
// flight drops it. A one-way message then reaches its service unboxed
// when the endpoint there now is a sink for T, and boxed otherwise.
func land[T any](n *Network, m message, body T) {
	a, b := m.from, m.to
	if cause, cut := n.blocked(a, b); cut {
		n.drop(m, cause)
		return
	}
	b.MsgsRecv++
	switch {
	case m.c == nil:
		switch ep := b.endpoints[m.svc].(type) {
		case nil:
		case sink[T]:
			ep.post(n, m.span, a.Name, body)
		default:
			n.handle(m.span, ep, a.Name, body) // response discarded for one-way sends
		}
		m.span.End()
	case !m.c.served:
		n.serve(m, body)
	default:
		m.c.finish(body, m.c.err)
	}
}

// drop counts a leg lost in flight, by cause. A Post's span ends with the
// cause; a Call leaves its span to the timeout, and with none armed
// nothing settles the call, or keeps it.
func (n *Network) drop(m message, cause dropCause) {
	n.drops[cause]++
	if m.c == nil {
		m.span.End(obs.String("drop", cause.String()))
	}
}

// serve answers a Call where its request landed, on the latency the
// request flew. "Connection refused" is observable, unlike loss, so a
// refusal takes no loss draw; it is still a control message travelling
// back, counted and lost to a caller that crashed meanwhile.
func (n *Network) serve(m message, req any) {
	c := m.c
	c.served = true
	reply := message{from: m.to, to: m.from, c: c}
	ep, ok := m.to.endpoints[m.svc]
	if !ok {
		c.err = ErrNoHandler
		fly[any](n, &n.legs, reply, nil, c.lat, false)
		return
	}
	var resp any
	resp, c.err = n.handle(c.span, ep, m.from.Name, req)
	fly(n, &n.legs, reply, resp, c.lat, true)
}

// handle runs an endpoint under the span of the message it serves, so the
// spans it opens (and the messages it sends) are causal children of that
// message.
func (n *Network) handle(span obs.SpanContext, ep endpoint, from string, body any) (resp any, err error) {
	n.tr.Scope(span, func() { resp, err = ep.serve(from, body) })
	return resp, err
}

// Post delivers a one-way message to a service on the destination host.
// Delivery is best-effort: loss, partitions and down hosts silently drop
// it (like a UDP datagram). The handler's response, if any, is discarded.
// msg rides unboxed when the service is a Serve endpoint taking a T, and
// is boxed into an any, as Send's is, when it is not.
func Post[T any](n *Network, from, to, service string, msg T) {
	a, b := n.hosts[from], n.hosts[to]
	lat, err := n.depart(a, b)
	if err != nil {
		return
	}
	m := message{from: a, to: b, span: n.msgSpan("net.send", from, to, service), svc: service}
	if s, ok := b.endpoints[service].(sink[T]); ok {
		fly(n, s.pool(), m, msg, lat, true)
		return
	}
	fly(n, &n.legs, m, any(msg), lat, true)
}

// Send is Post of an any.
func (n *Network) Send(from, to, service string, msg any) { Post(n, from, to, service, msg) }

// msgSpan opens the span of a Post or a Call: the zero context when
// tracing is off.
func (n *Network) msgSpan(name, from, to, service string) obs.SpanContext {
	if n.tr == nil {
		return obs.SpanContext{}
	}
	return n.tr.Begin(name,
		obs.String("from", from), obs.String("to", to), obs.String("svc", service))
}

// Call performs a request/response RPC and invokes done exactly once with
// the result. Lost requests or responses surface as ErrTimeout after the
// deadline; with no timeout (timeout <= 0) a lost leg never settles.
// Calls are asynchronous because the kernel is event-driven.
func (n *Network) Call(from, to, service string, req any, timeout time.Duration, done func(resp any, err error)) {
	if done == nil {
		panic("simnet: nil completion for Call")
	}
	a, b := n.hosts[from], n.hosts[to]
	lat, err := n.depart(a, b)
	if err != nil {
		n.eng.Schedule(0, func() { done(nil, err) })
		return
	}
	c := &call{n: n, lat: lat, start: n.eng.Now(), done: done, span: n.msgSpan("net.call", from, to, service)}
	if timeout > 0 {
		c.timeoutEv = n.eng.ScheduleFire(timeout, c)
	}
	fly(n, &n.legs, message{from: a, to: b, svc: service, c: c}, req, lat, true)
}

// Request is Call with typed ends: req is the payload, and done gets the
// reply as a Resp beside the call's error, as it came, so a reply that
// rides with an error reaches the caller too. A reply of another type
// fails with ErrPayload instead of being unboxed blindly.
func Request[Req, Resp any](n *Network, from, to, service string, req Req, timeout time.Duration, done func(Resp, error)) {
	n.Call(from, to, service, req, timeout, func(raw any, err error) {
		resp, ok := raw.(Resp)
		if !ok && err == nil {
			err = fmt.Errorf("%w: %s replied %T, want %v", ErrPayload, service, raw, reflect.TypeFor[Resp]())
		}
		done(resp, err)
	})
}

// Serve registers fn as the endpoint for service on h, typed at both
// ends: a request of another type fails with ErrPayload before fn runs,
// and fn's reply and error go back as they are. A handler with nothing to
// reply returns struct{}, which boxes without allocating. A Post of a Req
// reaches fn unboxed.
func Serve[Req, Resp any](h *Host, service string, fn func(from string, req Req) (Resp, error)) {
	h.endpoints[service] = &typed[Req, Resp]{svc: service, fn: fn}
}

// typed is the endpoint Serve registers: its handler, and the free list
// of the legs that carry a Req posted to it.
type typed[Req, Resp any] struct {
	svc  string
	fn   func(from string, req Req) (Resp, error)
	legs legPool[Req]
}

func (e *typed[Req, Resp]) serve(from string, raw any) (any, error) {
	req, ok := raw.(Req)
	if !ok {
		return nil, fmt.Errorf("%w: %s takes %v, got %T", ErrPayload, e.svc, reflect.TypeFor[Req](), raw)
	}
	return e.fn(from, req)
}

func (e *typed[Req, Resp]) pool() *legPool[Req] { return &e.legs }

// post runs fn on a posted message under its span; the reply is dropped.
func (e *typed[Req, Resp]) post(n *Network, span obs.SpanContext, from string, req Req) {
	n.tr.Scope(span, func() { e.fn(from, req) })
}

// call is one in-flight RPC. Its state lives in fields, not closure
// captures, and a call in flight is reached from an engine node, through
// its timeout or the leg carrying it, so a snapshot restores it exactly.
type call struct {
	n     *Network
	span  obs.SpanContext
	start time.Duration
	lat   time.Duration // one-way latency at the request's departure; the reply flies it too
	done  func(resp any, err error)
	// served is set when the request lands, so the next leg to land is
	// the reply; err is the error that reply carries.
	served    bool
	finished  bool
	err       error
	timeoutEv sim.Event
}

// Fire is the call's timeout.
func (c *call) Fire() { c.finish(nil, ErrTimeout) }

// finish settles the call exactly once.
func (c *call) finish(resp any, err error) {
	if c.finished {
		return
	}
	c.finished = true
	// Cancel the pending timeout so completed calls do not leave dead
	// events in the heap (Cancel on the fired timeout is a no-op).
	c.n.eng.Cancel(c.timeoutEv)
	switch {
	case errors.Is(err, ErrTimeout):
		c.n.callTimeout++
	case errors.Is(err, ErrNoHandler):
		c.n.callRefused++
	}
	if c.n.tr != nil {
		c.n.hCallRTT.Observe(c.n.eng.Now() - c.start)
		c.span.End(obs.Err(err))
	}
	c.done(resp, err)
}
