package simnet

import (
	"fmt"
	"math"
	"slices"
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
	// path (SetDown) or a partition that cuts it.
	OnFail func(*Flow, error)

	opts    FlowOpts
	src     *Host      // credited with the bytes each stream moves
	paths   []pathInfo // opts.Paths resolved, indexed by stream.path
	streams []*stream  // live streams in creation order (determinism)
	seq     uint64     // creation sequence within the network
	begun   time.Duration
	ended   time.Duration
	done    bool
	failed  bool
	span    obs.SpanContext // open while the flow is in progress
}

// stream is one TCP stream of a flow: the fluid consumer that drains its
// share of the bytes, and the path it takes. A flow makes its streams
// once, at start; a pooled re-split or a partition restripe re-arms the
// streams it has just dropped, so a stream's consumer, resource list and
// completion callback cost nothing after the first arming.
type stream struct {
	sim.FluidConsumer
	flow *Flow
	path int // index into flow.paths
}

func (st *stream) finished() { st.flow.streamDone(st) }

type pathInfo struct {
	resources []*sim.FluidResource
	// segs are the hop site pairs in path order (intra-site hops
	// included): a partition of one inter-site pair severs the path, and
	// the Mathis limit is re-derived from current loss and latency
	// whenever either changes mid-transfer.
	segs [][2]string
}

// crosses reports whether the path has an inter-site hop between the
// (sorted) site pair key.
func (pi *pathInfo) crosses(key [2]string) bool {
	for _, s := range pi.segs {
		if s[0] != s[1] && pairKey(s[0], s[1]) == key {
			return true
		}
	}
	return false
}

// StartFlow begins transferring bytes from one host to another and returns
// the flow handle. The flow's OnDone callback (set via opts on the returned
// Flow before the engine next runs, or passed as onDone) fires at
// completion. Errors are returned synchronously for unusable paths, for
// bytes that are not finite and positive, and for a weight that is not
// finite.
func (n *Network) StartFlow(from, to string, bytes float64, opts FlowOpts, onDone func(*Flow)) (*Flow, error) {
	src, dst := n.hosts[from], n.hosts[to]
	if src == nil || dst == nil {
		return nil, ErrNoSuchHost
	}
	if src.downFlag || dst.downFlag {
		return nil, ErrHostDown
	}
	if !(bytes > 0) || math.IsInf(bytes, 1) { // the negation also catches NaN
		return nil, fmt.Errorf("simnet: flow of %v bytes", bytes)
	}
	if math.IsNaN(opts.Weight) || math.IsInf(opts.Weight, 0) {
		return nil, fmt.Errorf("simnet: flow weight %v", opts.Weight)
	}
	if opts.Streams <= 0 {
		opts.Streams = 1
	}
	if opts.Weight <= 0 {
		opts.Weight = 1
	}

	// Resolve each path (none listed: the direct one) to its resource
	// chain and hops.
	paths := make([]pathInfo, max(len(opts.Paths), 1))
	for i := range paths {
		var relays []string
		if i < len(opts.Paths) {
			relays = opts.Paths[i]
		}
		pi, err := n.resolvePath(src, dst, relays)
		if err != nil {
			return nil, err
		}
		paths[i] = pi
	}

	n.flowSeq++
	f := &Flow{
		net:     n,
		From:    from,
		To:      to,
		Bytes:   bytes,
		seq:     n.flowSeq,
		opts:    opts,
		src:     src,
		paths:   paths,
		streams: make([]*stream, 0, opts.Streams),
		begun:   n.eng.Now(),
		OnDone:  onDone,
	}
	n.active[f] = struct{}{}
	if n.tr != nil {
		f.span = n.tr.Begin("net.flow",
			obs.String("from", from), obs.String("to", to),
			obs.Float("bytes", bytes), obs.Int("streams", opts.Streams))
	}

	per := bytes / float64(opts.Streams)
	streams := make([]stream, opts.Streams)
	for i := range streams {
		st := &streams[i]
		st.flow, st.Weight = f, opts.Weight
		st.OnDone = st.finished
		f.arm(st, i%len(paths), per)
	}
	return f, nil
}

// resolvePath walks src -> relays... -> dst, collecting the access-link
// resources each segment crosses (each once, in path order) and the hop
// site pairs the Mathis TCP rate cap is derived from.
func (n *Network) resolvePath(src, dst *Host, relays []string) (pathInfo, error) {
	for _, r := range relays {
		h := n.hosts[r]
		if h == nil {
			return pathInfo{}, fmt.Errorf("%w: relay %q", ErrNoSuchHost, r)
		}
		if h.downFlag {
			return pathInfo{}, fmt.Errorf("%w: relay %q", ErrHostDown, r)
		}
	}
	pi := pathInfo{
		resources: make([]*sim.FluidResource, 0, 2*(len(relays)+1)),
		segs:      make([][2]string, 0, len(relays)+1),
	}
	a := src
	for i := 0; i <= len(relays); i++ {
		b := dst
		if i < len(relays) {
			b = n.hosts[relays[i]]
		}
		if n.Partitioned(a.Site, b.Site) {
			return pathInfo{}, fmt.Errorf("%w: %s-%s", ErrPartitioned, a.Site, b.Site)
		}
		pi.segs = append(pi.segs, [2]string{a.Site, b.Site})
		// A relay contributes its down then its up; a path that visits a
		// host twice lists each of its links once.
		for _, r := range [2]*sim.FluidResource{a.up, b.down} {
			if !slices.Contains(pi.resources, r) {
				pi.resources = append(pi.resources, r)
			}
		}
		a = b
	}
	for _, r := range pi.resources {
		if r.Capacity() <= 0 {
			return pathInfo{}, ErrZeroCapacity
		}
	}
	return pi, nil
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
	for _, st := range f.streams {
		if pi := &f.paths[st.path]; pi.crosses(key) {
			st.SetLimit(f.net.pathLimit(pi.segs))
		}
	}
}

// arm starts st carrying bytes along path p, capped at the path's current
// Mathis limit: a stream made at start, or one the flow has just dropped.
func (f *Flow) arm(st *stream, p int, bytes float64) {
	st.path = p
	st.Limit = f.net.pathLimit(f.paths[p].segs)
	f.streams = append(f.streams, st)
	f.net.flows.Add(&st.FluidConsumer, bytes, f.paths[p].resources...)
}

// drop removes a stream from the flow's books (not from the fluid
// system — the caller has already finished or removed it there) and
// credits the bytes the stream actually moved to the source host. Every
// stream terminal — natural completion, pooled re-split, partition cut —
// lands here, and fail credits its streams the same way, so BytesSent
// sums to real progress, not the full flow size charged up-front
// regardless of outcome.
func (f *Flow) drop(st *stream) {
	f.src.BytesSent += st.Transferred()
	if i := slices.Index(f.streams, st); i >= 0 {
		f.streams = slices.Delete(f.streams, i, i+1)
	}
}

func (f *Flow) streamDone(st *stream) {
	f.drop(st)
	if f.failed {
		return
	}
	if f.opts.Pooled && len(f.streams) > 0 {
		// Steal half of the largest backlog onto the just-freed path.
		var victim *stream
		var max float64
		for _, s := range f.streams {
			if r := s.Remaining(); r > max {
				max, victim = r, s
			}
		}
		// Only worth re-splitting if there is meaningful work to steal.
		if victim != nil && max > f.net.MTU {
			f.net.flows.Remove(&victim.FluidConsumer)
			f.drop(victim)
			f.arm(victim, victim.path, max/2)
			f.arm(st, st.path, max/2)
			return
		}
	}
	if len(f.streams) == 0 && !f.done {
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
	if f.done || f.failed {
		return
	}
	severed := 0
	for _, st := range f.streams {
		if f.paths[st.path].crosses(key) {
			severed++
		}
	}
	if severed == 0 {
		return
	}
	if severed == len(f.streams) || !f.opts.Pooled {
		f.fail(fmt.Errorf("%w: %s-%s", ErrPartitioned, key[0], key[1]))
		return
	}
	stranded := 0.0
	var spare *stream
	for i := 0; i < len(f.streams); {
		st := f.streams[i]
		if !f.paths[st.path].crosses(key) {
			i++
			continue
		}
		stranded += st.Remaining()
		f.net.flows.Remove(&st.FluidConsumer)
		f.drop(st)
		if spare == nil {
			spare = st
		}
	}
	f.arm(spare, f.streams[0].path, stranded)
}

// fail kills the flow because a host on its path died or its path was
// cut: every stream leaves the fluid system, crediting the bytes it
// actually moved, and OnFail fires.
func (f *Flow) fail(err error) {
	if f.done || f.failed {
		return
	}
	f.net.flowsFailed++
	f.span.Annotate(obs.Err(err))
	f.failed = true
	f.span.End(obs.String("failed", "true"))
	delete(f.net.active, f)
	for _, st := range f.streams {
		f.net.flows.Remove(&st.FluidConsumer)
		f.src.BytesSent += st.Transferred()
	}
	f.streams = nil
	if f.OnFail != nil {
		f.OnFail(f, err)
	}
}

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
