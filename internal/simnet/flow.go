package simnet

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// FlowOpts configures a bulk data transfer.
type FlowOpts struct {
	// Streams is the number of parallel TCP streams (GridFTP-style
	// striping). Zero means 1.
	Streams int
	// Paths lists overlay routes as sequences of relay host names
	// (excluding the endpoints). An empty entry, or an empty Paths, means
	// the direct path. Streams are spread round-robin across paths.
	Paths [][]string
	// Pooled makes streams share one byte pool mTCP-style: when a stream
	// finishes early, it steals half of the largest remaining backlog, so
	// fast paths carry more bytes. Without it the split is static, as in
	// block-partitioned striped GridFTP.
	Pooled bool
	// Weight scales the flow's share against competing flows (default 1).
	Weight float64
}

// Flow is an in-progress or completed bulk transfer.
type Flow struct {
	net    *Network
	From   string
	To     string
	Bytes  float64
	OnDone func(*Flow)
	// OnFail fires when the flow is killed by a host failure along its
	// path (SetDown). Abort does not trigger it.
	OnFail func(*Flow, error)

	opts      FlowOpts
	pathOf    map[*sim.FluidConsumer]pathInfo
	order     []*sim.FluidConsumer // live streams in creation order (determinism)
	seq       uint64               // creation sequence within the network
	active    int
	begun     time.Duration
	ended     time.Duration
	done      bool
	aborted   bool
	netstream int             // total streams ever created, for naming
	hosts     map[string]bool // endpoints and relays, for failure kills
	span      obs.SpanContext // open while the flow is in progress
}

type pathInfo struct {
	resources []*sim.FluidResource
	// crossings are the (sorted) site pairs the path's hops traverse, so a
	// partition can identify exactly the streams it severs.
	crossings [][2]string
	// segs are the hop site pairs in path order (intra-site hops
	// included), kept so the Mathis limit can be re-derived from current
	// loss and latency whenever either changes mid-transfer.
	segs [][2]string
}

func (pi pathInfo) crosses(key [2]string) bool {
	for _, c := range pi.crossings {
		if c == key {
			return true
		}
	}
	return false
}

// StartFlow begins transferring bytes from one host to another and returns
// the flow handle. The flow's OnDone callback (set via opts on the returned
// Flow before the engine next runs, or passed as onDone) fires at
// completion. Errors are returned synchronously for unusable paths.
func (n *Network) StartFlow(from, to string, bytes float64, opts FlowOpts, onDone func(*Flow)) (*Flow, error) {
	src, dst := n.hosts[from], n.hosts[to]
	if src == nil || dst == nil {
		return nil, ErrNoSuchHost
	}
	if src.downFlag || dst.downFlag {
		return nil, ErrHostDown
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("simnet: flow of %v bytes", bytes)
	}
	if opts.Streams <= 0 {
		opts.Streams = 1
	}
	if opts.Weight <= 0 {
		opts.Weight = 1
	}
	if len(opts.Paths) == 0 {
		opts.Paths = [][]string{nil}
	}

	// Resolve each path to its resource chain and TCP limit.
	paths := make([]pathInfo, 0, len(opts.Paths))
	for _, relays := range opts.Paths {
		pi, err := n.resolvePath(src, dst, relays)
		if err != nil {
			return nil, err
		}
		paths = append(paths, pi)
	}

	n.flowSeq++
	f := &Flow{
		net:    n,
		From:   from,
		To:     to,
		Bytes:  bytes,
		seq:    n.flowSeq,
		opts:   opts,
		pathOf: make(map[*sim.FluidConsumer]pathInfo),
		begun:  n.eng.Now(),
		OnDone: onDone,
	}
	f.hosts = map[string]bool{from: true, to: true}
	for _, relays := range opts.Paths {
		for _, r := range relays {
			f.hosts[r] = true
		}
	}
	n.active[f] = struct{}{}
	if n.tr != nil {
		f.span = n.tr.Begin("net.flow",
			obs.String("from", from), obs.String("to", to),
			obs.Float("bytes", bytes), obs.Int("streams", opts.Streams))
	}

	per := bytes / float64(opts.Streams)
	for i := 0; i < opts.Streams; i++ {
		f.addStream(paths[i%len(paths)], per)
	}
	return f, nil
}

// resolvePath walks src -> relays... -> dst, collecting the access-link
// resources each segment crosses and computing the Mathis TCP rate cap for
// the concatenated path.
func (n *Network) resolvePath(src, dst *Host, relays []string) (pathInfo, error) {
	hops := make([]*Host, 0, len(relays)+2)
	hops = append(hops, src)
	for _, r := range relays {
		h := n.hosts[r]
		if h == nil {
			return pathInfo{}, fmt.Errorf("%w: relay %q", ErrNoSuchHost, r)
		}
		if h.downFlag {
			return pathInfo{}, fmt.Errorf("%w: relay %q", ErrHostDown, r)
		}
		hops = append(hops, h)
	}
	hops = append(hops, dst)

	var resources []*sim.FluidResource
	var crossings, segs [][2]string
	for i := 0; i+1 < len(hops); i++ {
		a, b := hops[i], hops[i+1]
		if n.Partitioned(a.Site, b.Site) {
			return pathInfo{}, fmt.Errorf("%w: %s-%s", ErrPartitioned, a.Site, b.Site)
		}
		if a.Site != b.Site {
			crossings = append(crossings, pairKey(a.Site, b.Site))
		}
		segs = append(segs, [2]string{a.Site, b.Site})
		resources = append(resources, a.up, b.down)
	}
	// De-duplicate resources (a relay contributes its down then its up; no
	// duplicates arise today, but overlapping future topologies could).
	seen := make(map[*sim.FluidResource]bool, len(resources))
	uniq := resources[:0]
	for _, r := range resources {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	for _, r := range uniq {
		if r.Capacity() <= 0 {
			return pathInfo{}, ErrZeroCapacity
		}
	}
	return pathInfo{resources: uniq, crossings: crossings, segs: segs}, nil
}

// pathLimit derives the TCP rate cap for a path from the network's
// current loss and latency — Mathis et al.: BW = MSS / (RTT * sqrt(2p/3)),
// 0 meaning uncapped on a lossless path. Streams are created with it and
// re-capped through it when loss or latency churns mid-transfer.
func (n *Network) pathLimit(segs [][2]string) float64 {
	var rtt time.Duration
	survive := 1.0
	for _, s := range segs {
		rtt += 2 * n.Latency(s[0], s[1])
		survive *= 1 - n.Loss(s[0], s[1])
	}
	loss := 1 - survive
	if loss <= 0 {
		return 0
	}
	return n.MTU / (rtt.Seconds() * math.Sqrt(2*loss/3))
}

// retune re-derives the Mathis limit of every live stream crossing the
// given site pair, pushing the new cap into the fluid system (which
// reallocates only the affected component). Called on loss and latency
// changes so in-flight transfers track current path conditions instead of
// keeping the cap computed at start.
func (f *Flow) retune(key [2]string) {
	for _, c := range f.order {
		if pi := f.pathOf[c]; pi.crosses(key) {
			c.SetLimit(f.net.pathLimit(pi.segs))
		}
	}
}

func (f *Flow) addStream(pi pathInfo, bytes float64) {
	f.netstream++
	f.active++
	c := &sim.FluidConsumer{
		Name:   f.From + "->" + f.To + "#" + strconv.Itoa(f.netstream),
		Weight: f.opts.Weight,
		Limit:  f.net.pathLimit(pi.segs),
	}
	c.OnDone = func() { f.streamDone(c) }
	f.net.flows.Add(c, bytes, pi.resources...)
	f.pathOf[c] = pi
	f.order = append(f.order, c)
}

// drop removes a stream from the flow's books (not from the fluid
// system — the caller has already finished or removed it there) and
// credits the bytes the stream actually moved to the source host. Every
// stream terminal — natural completion, pooled re-split, partition cut,
// abort — lands here, so BytesSent sums to real progress, not the full
// flow size charged up-front regardless of outcome.
func (f *Flow) drop(c *sim.FluidConsumer) {
	f.net.hosts[f.From].BytesSent += c.Transferred()
	delete(f.pathOf, c)
	for i, s := range f.order {
		if s == c {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.active--
}

func (f *Flow) streamDone(c *sim.FluidConsumer) {
	donePath := f.pathOf[c]
	f.drop(c)
	if f.aborted {
		return
	}
	if f.opts.Pooled && f.active > 0 {
		// Steal half of the largest backlog onto the just-freed path.
		var victim *sim.FluidConsumer
		var max float64
		for _, s := range f.order {
			if r := s.Remaining(); r > max {
				max, victim = r, s
			}
		}
		// Only worth re-splitting if there is meaningful work to steal.
		if victim != nil && max > f.net.MTU {
			vicPath := f.pathOf[victim]
			f.net.flows.Remove(victim)
			f.drop(victim)
			f.addStream(vicPath, max/2)
			f.addStream(donePath, max/2)
			return
		}
	}
	if f.active == 0 && !f.done {
		f.done = true
		f.ended = f.net.eng.Now()
		delete(f.net.active, f)
		f.net.flowsDone++
		f.span.End()
		if f.OnDone != nil {
			f.OnDone(f)
		}
	}
}

// partitionCut severs every stream whose path crosses the cut site pair.
// Static (non-pooled) striping has no reassembly protocol, so losing any
// stripe fails the whole transfer; a pooled flow restripes the severed
// backlog onto its first surviving path and fails only when fully cut.
func (f *Flow) partitionCut(key [2]string) {
	if f.done || f.aborted {
		return
	}
	var severed []*sim.FluidConsumer
	for _, c := range f.order {
		if f.pathOf[c].crosses(key) {
			severed = append(severed, c)
		}
	}
	if len(severed) == 0 {
		return
	}
	if len(severed) == f.active || !f.opts.Pooled {
		f.fail(fmt.Errorf("%w: %s-%s", ErrPartitioned, key[0], key[1]))
		return
	}
	stranded := 0.0
	for _, c := range severed {
		stranded += c.Remaining()
		f.net.flows.Remove(c)
		f.drop(c)
	}
	f.addStream(f.pathOf[f.order[0]], stranded)
}

// fail kills the flow because a host on its path died or its path was
// cut. Counted as failed, not aborted.
func (f *Flow) fail(err error) {
	if f.done || f.aborted {
		return
	}
	f.net.flowsFailed++
	f.span.Annotate(obs.Err(err))
	f.abort()
	if f.OnFail != nil {
		f.OnFail(f, err)
	}
}

// Abort cancels all in-progress streams at the user's request. OnDone
// and OnFail do not fire; the flow counts as aborted (so started flows
// always reconcile as done + failed + aborted + active).
func (f *Flow) Abort() {
	if f.done || f.aborted {
		return
	}
	f.net.flowsAborted++
	f.abort()
}

// abort is the shared teardown behind Abort (user cancel) and fail
// (network kill): remove every stream from the fluid system, crediting
// the bytes each actually moved.
func (f *Flow) abort() {
	f.aborted = true
	f.span.End(obs.String("aborted", "true"))
	delete(f.net.active, f)
	for _, c := range f.order {
		f.net.flows.Remove(c)
		f.net.hosts[f.From].BytesSent += c.Transferred()
	}
	f.pathOf = map[*sim.FluidConsumer]pathInfo{}
	f.order = nil
	f.active = 0
}

// Done reports whether the transfer completed.
func (f *Flow) Done() bool { return f.done }

// Duration returns the elapsed transfer time; valid once Done.
func (f *Flow) Duration() time.Duration { return f.ended - f.begun }

// ThroughputBps returns bytes/second achieved; valid once Done.
func (f *Flow) ThroughputBps() float64 {
	d := f.Duration().Seconds()
	if d <= 0 {
		return math.Inf(1)
	}
	return f.Bytes / d
}
