package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// The fluid model approximates packet- or tick-level resource sharing with
// piecewise-constant rates: a set of consumers drains work through a set of
// capacity-limited resources, and rates are recomputed with weighted
// max-min fairness (progressive filling) whenever the consumer set or any
// capacity changes. This is the standard fluid approximation used by
// flow-level network simulators; gridlab uses one instance for WAN
// bandwidth sharing (internal/simnet) and one per node for
// proportional-share CPU scheduling (internal/silk).
//
// Allocation is incremental. Slack resources — those whose consumers are
// all rate-capped with caps that fit — can never saturate, so weighted
// max-min fairness decomposes exactly across the sub-components that the
// other, tight, resources connect. A change (consumer add/remove, limit
// change, capacity change) re-fills only the "dirty set": the consumers
// reachable from the change across resources that are tight after it, or
// that were tight before it and are the change's own. Every other rate is
// left untouched (a consumer on slack resources only keeps its Limit). In
// the CDN's steady state, every stream at its TCP cap, starting a stream
// re-fills that stream and finishing one re-fills nothing. Within the
// dirty set the progressive filling iterates consumers in admission order
// and tight resources in creation order, which makes the float arithmetic
// bit-identical to a global recompute; the test-only full mode in
// export_test.go re-fills everything and is the reference the gates
// compare against, and refFill there, the filling without the prune, is
// the reference every fill is held to bit for bit.
// Completion events are rescheduled only for consumers
// whose rate actually changed: an unchanged rate means the pending event's
// ceil-rounded ETA is still exact, so cancel+reschedule churn (previously
// O(N) per change) tracks the size of the rate change, not the system.
//
// All allocator state — including the reusable scratch slices — lives in
// struct fields reachable from the FluidSystem, never in closure captures,
// so engine snapshots taken mid-run restore the allocator exactly (see
// snap.go and the snapshot-safety analyzers).

// FluidResource is a capacity-limited resource, e.g. a link direction or a
// node's CPU. Capacity is in work units per second.
type FluidResource struct {
	Name     string
	capacity float64
	sys      *FluidSystem
	idx      int32 // dense index in sys.resources (creation order)

	// consumers are the live consumers crossing this resource, in
	// admission order — the edge list the dirty-set walk follows.
	consumers []*FluidConsumer

	// Scratch used during one fill; meaningful only mid-reallocation, and
	// on a resource the fill dropped as slack written but never read.
	avail    float64
	weightOn float64
	visited  uint64 // dirty-walk epoch stamp
	crossAt  uint64 // epoch of the walk that must cross r: tight before its change
}

// Capacity returns the resource's current capacity in units/second.
func (r *FluidResource) Capacity() float64 { return r.capacity }

// SetCapacity changes the capacity and reallocates the rates of the
// resource's connected component.
func (r *FluidResource) SetCapacity(c float64) {
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("sim: invalid capacity %v for %s", c, r.Name))
	}
	r.sys.seedR[0] = r
	r.sys.noteTight(r.sys.seedR[:])
	r.capacity = c
	r.sys.reallocAround(nil, r.sys.seedR[:])
}

// FluidConsumer is one unit of demand draining through one or more
// resources simultaneously (a network flow traverses both endpoints'
// access links; a CPU task uses one CPU).
type FluidConsumer struct {
	Name string
	// Weight sets the consumer's share relative to competitors (stride /
	// proportional-share semantics). Must be > 0.
	Weight float64
	// Limit caps the consumer's rate independent of fair share, in
	// units/second; 0 means unlimited. Used for TCP loss-limited rates and
	// token-bucket ceilings. Change it on a live consumer via SetLimit,
	// which triggers reallocation; writing the field directly takes effect
	// only at the next reallocation touching the consumer.
	Limit float64
	// OnDone fires when Remaining reaches zero; the consumer is removed
	// before the callback runs.
	OnDone func()

	remaining  float64
	total      float64
	rate       float64
	resources  []*FluidResource
	sys        *FluidSystem
	done       Event
	lastUpdate time.Duration
	seq        uint64 // admission order, stable across removals
	live       bool

	// Scratch used during one fill; meaningful only mid-reallocation.
	visited uint64
	frozen  bool
}

// doneEps is the absolute remaining-work tolerance below which the
// consumer counts as finished; it scales with the original work size to
// absorb float drift from repeated settling of large transfers.
func (c *FluidConsumer) doneEps() float64 { return 1e-9 * (1 + c.total) }

// Remaining returns the work left as of the current virtual time.
func (c *FluidConsumer) Remaining() float64 {
	c.settle()
	return c.remaining
}

// Transferred returns the work completed as of the current virtual time.
// It remains valid (and frozen) after the consumer is removed, which is
// what lets callers charge exactly the bytes a cancelled transfer moved.
func (c *FluidConsumer) Transferred() float64 {
	c.settle()
	return c.total - c.remaining
}

// SetLimit changes the consumer's rate cap (0 = unlimited) and, for a
// live consumer, reallocates its component — the hook loss/RTT churn uses
// to re-cap in-flight TCP streams. A bitwise-equal limit is a no-op.
func (c *FluidConsumer) SetLimit(limit float64) {
	if limit < 0 || math.IsNaN(limit) {
		panic(fmt.Sprintf("sim: consumer %q invalid limit %v", c.Name, limit))
	}
	if limit == c.Limit {
		return
	}
	if !c.live {
		c.Limit = limit
		return
	}
	c.sys.noteTight(c.resources)
	c.Limit = limit
	c.sys.reallocAround(c, nil)
}

// settle charges progress since the last update at the current rate.
func (c *FluidConsumer) settle() {
	if c.sys == nil {
		return
	}
	now := c.sys.eng.Now()
	if now > c.lastUpdate {
		c.remaining -= c.rate * (now - c.lastUpdate).Seconds()
		if c.remaining < 0 {
			c.remaining = 0
		}
	}
	c.lastUpdate = now
}

// FluidSystem owns a set of resources and the consumers draining through
// them, recomputing the weighted max-min fair allocation of the affected
// component on every change.
type FluidSystem struct {
	eng       *Engine
	resources []*FluidResource
	order     []*FluidConsumer // live consumers in admission order
	liveN     int
	seqC      uint64 // admission sequence source
	epoch     uint64 // dirty-walk epoch source

	// full disables dirty-set pruning: every reallocation re-fills all
	// components. Only tests set it (export_test.go): the differential
	// gates compare this reference mode against the pruned one.
	full bool

	// Reusable scratch, reachable from the system so snapshots restore it
	// (the contents are only meaningful mid-reallocation).
	dirtyC  []*FluidConsumer
	tightR  []*FluidResource // the dirty consumers' tight resources, see fill
	queueR  []*FluidResource
	newRate []float64
	seedR   [1]*FluidResource
}

// NewFluidSystem returns an empty system bound to the engine.
func NewFluidSystem(eng *Engine) *FluidSystem {
	return &FluidSystem{eng: eng}
}

// NewResource registers a resource with the given capacity (units/sec).
func (s *FluidSystem) NewResource(name string, capacity float64) *FluidResource {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("sim: invalid capacity %v for %s", capacity, name))
	}
	r := &FluidResource{Name: name, capacity: capacity, sys: s, idx: int32(len(s.resources))}
	s.resources = append(s.resources, r)
	return r
}

// Add starts a consumer with the given amount of work across the listed
// resources and returns it. A consumer with no resources is limited only
// by its Limit (or runs instantaneously if Limit is 0 — disallowed).
// Zero work completes immediately: OnDone fires before Add returns.
func (s *FluidSystem) Add(c *FluidConsumer, work float64, resources ...*FluidResource) *FluidConsumer {
	if c.Weight <= 0 {
		panic(fmt.Sprintf("sim: consumer %q weight %v must be positive", c.Name, c.Weight))
	}
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("sim: consumer %q invalid work %v", c.Name, work))
	}
	if len(resources) == 0 && c.Limit <= 0 {
		panic(fmt.Sprintf("sim: consumer %q needs a resource or a rate limit", c.Name))
	}
	for _, r := range resources {
		if r.sys != s {
			panic(fmt.Sprintf("sim: consumer %q uses resource %q from another system", c.Name, r.Name))
		}
	}
	c.sys = s
	c.remaining = work
	c.total = work
	c.rate = 0
	c.done = Event{}
	c.resources = append([]*FluidResource(nil), resources...)
	c.lastUpdate = s.eng.Now()
	if work <= c.doneEps() {
		// Nothing to transfer: complete synchronously without ever joining
		// the allocation, as the previous global recompute did.
		c.remaining = 0
		if c.OnDone != nil {
			c.OnDone()
		}
		return c
	}
	s.seqC++
	c.seq = s.seqC
	c.live = true
	s.liveN++
	s.order = append(s.order, c)
	for _, r := range c.resources {
		r.consumers = append(r.consumers, c)
	}
	s.reallocAround(c, nil)
	return c
}

// Remove cancels a consumer without firing OnDone. Safe on finished ones.
func (s *FluidSystem) Remove(c *FluidConsumer) {
	if !c.live || c.sys != s {
		return
	}
	c.settle()
	s.noteTight(c.resources)
	s.detach(c)
	s.reallocAround(nil, c.resources)
}

func (s *FluidSystem) detach(c *FluidConsumer) {
	c.live = false
	s.liveN--
	for i, x := range s.order {
		if x == c {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	for _, r := range c.resources {
		for i, x := range r.consumers {
			if x == c {
				r.consumers = append(r.consumers[:i], r.consumers[i+1:]...)
				break
			}
		}
	}
	s.eng.Cancel(c.done)
	c.done = Event{}
	c.rate = 0
}

// noteTight records, before a change to the seed resources rs, which of
// them are tight: the walk that follows crosses those even if the change
// leaves them slack, because their consumers' rates were set by them. Add
// needs no note: appending a consumer can only make a resource tighter.
func (s *FluidSystem) noteTight(rs []*FluidResource) {
	for _, r := range rs {
		if !r.slack() {
			r.crossAt = s.epoch + 1
		}
	}
}

// reallocAround recomputes the rates a change seeded at consumer c (may be
// nil) and/or resources rs can move, then reschedules completion events
// for the consumers whose rate changed.
func (s *FluidSystem) reallocAround(c *FluidConsumer, rs []*FluidResource) {
	s.collectDirty(c, rs)
	s.fill()
	s.applyRates()
}

// collectDirty walks the sharing graph from the seeds and leaves the
// affected consumers in s.dirtyC (admission order) and their tight
// resources in s.tightR (walk order). It crosses a resource — queues the
// resource's consumers as dirty — only when the resource is tight after
// the change or noteTight found it tight before; one slack on both sides
// cannot have set, and cannot set, any of its consumers' rates. In full
// mode it selects everything.
func (s *FluidSystem) collectDirty(seedC *FluidConsumer, seedR []*FluidResource) {
	s.dirtyC = s.dirtyC[:0]
	s.tightR = s.tightR[:0]
	s.queueR = s.queueR[:0]
	s.epoch++
	if s.full {
		s.dirtyC = append(s.dirtyC, s.order...)
		for _, r := range s.resources {
			if !r.slack() {
				s.tightR = append(s.tightR, r)
			}
		}
		return
	}
	if seedC != nil && seedC.live {
		seedC.visited = s.epoch
		s.dirtyC = append(s.dirtyC, seedC)
		s.visit(seedC.resources)
	}
	s.visit(seedR)
	for len(s.queueR) > 0 {
		r := s.queueR[len(s.queueR)-1]
		s.queueR = s.queueR[:len(s.queueR)-1]
		for _, c := range r.consumers {
			if c.visited == s.epoch {
				continue
			}
			c.visited = s.epoch
			s.dirtyC = append(s.dirtyC, c)
			s.visit(c.resources)
		}
	}
	// Canonical order makes the fill's float arithmetic match a full
	// recompute's (which iterates admission order) exactly; resources are
	// ordered by fill, which reads the order of the tight ones only.
	sortBySeq(s.dirtyC)
}

// visit decides, once per walk, whether each resource of rs is tight after
// the change — the one decision fill reads — and crosses the ones that are
// or that noteTight stamped.
func (s *FluidSystem) visit(rs []*FluidResource) {
	for _, r := range rs {
		if r.visited == s.epoch {
			continue
		}
		r.visited = s.epoch
		tight := !r.slack()
		if tight {
			s.tightR = append(s.tightR, r)
		}
		if tight || r.crossAt == s.epoch {
			s.queueR = append(s.queueR, r)
		}
	}
}

// insertionSortMax is the longest dirty set sorted by straight insertion
// on the key itself: the walk emits runs already in order, and below this
// length that beats pdqsort behind a comparator closure several times over.
const insertionSortMax = 64

// sortBySeq puts consumers in admission order.
func sortBySeq(cs []*FluidConsumer) {
	if len(cs) > insertionSortMax {
		slices.SortFunc(cs, func(a, b *FluidConsumer) int { return cmp.Compare(a.seq, b.seq) })
		return
	}
	for i := 1; i < len(cs); i++ {
		c, j := cs[i], i
		for ; j > 0 && cs[j-1].seq > c.seq; j-- {
			cs[j] = cs[j-1]
		}
		cs[j] = c
	}
}

// slack reports whether r can be left out of a fill: every consumer
// crossing it is rate-capped and the caps fit its capacity with a relative
// 1e-9 to spare. Then avail ≥ Σ unfrozen Limit ≥ (min unfrozen
// Limit/Weight)·weightOn in every round, so r's ratio stays strictly above
// the smallest cap ratio and the min-ratio scan never picks it. The margin
// must be strict (a resource wins a tie against a cap) and dwarfs the
// n·2⁻⁵³ rounding of the sums it covers; DESIGN §14 has the argument.
func (r *FluidResource) slack() bool {
	sum := 0.0
	for _, c := range r.consumers {
		if !(c.Limit > 0) {
			return false
		}
		sum += c.Limit
	}
	return sum <= r.capacity*(1-1e-9)
}

// fill computes the weighted max-min fair rates of the dirty set into
// s.newRate (parallel to s.dirtyC) without touching consumer state. It
// fills over s.tightR alone, the walk's decision, so the walk and the fill
// cannot disagree: only a resource's own ratio reads its avail and
// weightOn, so leaving out a slack one, which never wins, changes no
// decision and no operand of any other sum. With no tight resource every
// round is a cap round and the rates are the Limits. Otherwise progressive
// filling runs over s.tightR: each round freezes either one rate-capped
// consumer or every consumer crossing the saturating resource, at the
// minimum of the resource ratios (avail/weight-on) and consumer cap ratios
// (Limit/Weight) — identical arithmetic to a global fill, since the dirty
// set holds whole sub-components and they share no tight resource.
func (s *FluidSystem) fill() {
	dc := s.dirtyC
	if cap(s.newRate) < len(dc) {
		s.newRate = make([]float64, len(dc))
	}
	s.newRate = s.newRate[:len(dc)]
	dr := s.tightR
	if len(dr) == 0 {
		for i, c := range dc {
			s.newRate[i] = c.Limit
			if !(c.Limit > 0) { // crosses no resource either: nothing binds it
				s.newRate[i] = math.Inf(1)
			}
		}
		return
	}
	// Creation order, as in a full recompute: of equal ratios the first wins.
	slices.SortFunc(dr, func(a, b *FluidResource) int { return cmp.Compare(a.idx, b.idx) })
	for _, r := range dr {
		r.avail = r.capacity
	}
	for i, c := range dc {
		c.frozen = false
		s.newRate[i] = 0
	}
	unfrozen := len(dc)
	for unfrozen > 0 {
		for _, r := range dr {
			r.weightOn = 0
		}
		for _, c := range dc {
			if c.frozen {
				continue
			}
			for _, r := range c.resources {
				r.weightOn += c.Weight
			}
		}
		minRatio := math.Inf(1)
		var minRes *FluidResource
		minCapped := -1
		for _, r := range dr {
			if r.weightOn == 0 {
				continue
			}
			if ratio := r.avail / r.weightOn; ratio < minRatio {
				minRatio, minRes, minCapped = ratio, r, -1
			}
		}
		for i, c := range dc {
			if c.frozen || c.Limit <= 0 {
				continue
			}
			if ratio := c.Limit / c.Weight; ratio < minRatio {
				minRatio, minRes, minCapped = ratio, nil, i
			}
		}
		switch {
		case minCapped >= 0:
			// One consumer hits its rate cap below everyone's fair share.
			c := dc[minCapped]
			s.newRate[minCapped] = c.Limit
			for _, r := range c.resources {
				r.avail -= c.Limit
				if r.avail < 0 {
					r.avail = 0
				}
			}
			c.frozen = true
			unfrozen--
		case minRes != nil:
			// A resource saturates: freeze everyone crossing it.
			for i, c := range dc {
				if c.frozen {
					continue
				}
				uses := false
				for _, r := range c.resources {
					if r == minRes {
						uses = true
						break
					}
				}
				if !uses {
					continue
				}
				rate := c.Weight * minRatio
				s.newRate[i] = rate
				for _, r := range c.resources {
					r.avail -= rate
					if r.avail < 0 {
						r.avail = 0
					}
				}
				c.frozen = true
				unfrozen--
			}
			minRes.avail = 0
		default:
			// Only unconstrained, uncapped consumers remain (no resources
			// at all would have been rejected at Add). Nothing binds: this
			// can only happen when all their resources have infinite
			// capacity — treat as unlimited via an infinite rate.
			for i, c := range dc {
				if !c.frozen {
					s.newRate[i] = math.Inf(1)
					c.frozen = true
				}
			}
			unfrozen = 0
		}
	}
}

// applyRates commits the filled rates: consumers whose rate is bitwise
// unchanged are left entirely alone — their pending completion event's
// ceil-rounded ETA is still exact — while changed consumers settle the
// work done at the old rate and get a fresh completion event.
func (s *FluidSystem) applyRates() {
	now := s.eng.Now()
	for i, c := range s.dirtyC {
		nr := s.newRate[i]
		if nr == c.rate {
			continue
		}
		if now > c.lastUpdate {
			c.remaining -= c.rate * (now - c.lastUpdate).Seconds()
			if c.remaining < 0 {
				c.remaining = 0
			}
		}
		c.lastUpdate = now
		c.rate = nr
		s.eng.Cancel(c.done)
		c.done = Event{}
		switch {
		case c.remaining <= c.doneEps():
			// Already done as of the settle (a co-bottlenecked consumer
			// finishing at exactly this instant): complete now rather than
			// pushing the event a nanosecond into the future.
			c.done = s.eng.Schedule(0, func() { s.finish(c) })
		case nr > 0 && !math.IsInf(nr, 1):
			c.done = s.eng.Schedule(completionEta(c.remaining, nr), func() { s.finish(c) })
		case math.IsInf(nr, 1):
			c.done = s.eng.Schedule(0, func() { s.finish(c) })
		}
		// nr == 0: starved — no event until capacity returns.
	}
}

// maxEta caps completion ETAs at ~146 years of virtual time: a duration
// beyond that cannot be represented (the float64→Duration conversion
// would overflow to a bogus near-zero delay and grind the engine through
// nanosecond-step events). Such a consumer effectively never finishes
// unless a reallocation raises its rate, which replaces the event.
const maxEta = time.Duration(math.MaxInt64 / 2)

// CheckedDuration converts a float64 count of nanoseconds to a Duration;
// ok is false for NaN, a negative count, or one past what a Duration
// holds (about 292 years), whose float64→int64 conversion Go leaves
// implementation-defined (amd64 yields MinInt64). Durations that arrive
// as floats (RSL wall times, agreement terms, work over rate) pass here.
func CheckedDuration(ns float64) (d time.Duration, ok bool) {
	if !(ns >= 0 && ns < 1<<63) { // the negation also catches NaN
		return 0, false
	}
	return time.Duration(ns), true
}

// completionEta returns the ceil-rounded delay until work `remaining`
// drains at `rate`, at least 1ns (a truncated ETA would leave a sliver
// and loop at the same virtual time), at most maxEta.
func completionEta(remaining, rate float64) time.Duration {
	sec := remaining / rate
	eta, ok := CheckedDuration(math.Ceil(sec * float64(time.Second)))
	switch {
	case sec >= maxEta.Seconds():
		return maxEta
	case !ok || eta < 1:
		return 1
	}
	return eta
}

func (s *FluidSystem) finish(c *FluidConsumer) {
	if !c.live {
		return
	}
	c.settle()
	// Finished when within tolerance, or when the sliver left is smaller
	// than one nanosecond of progress at the current rate (it can never
	// be represented as a future event).
	if c.remaining > c.doneEps() && c.remaining > c.rate*1e-9 {
		// Defensive: real work remains (settle drift). The rate did not
		// change, so reschedule directly from the settled remainder.
		c.done = s.eng.Schedule(completionEta(c.remaining, c.rate), func() { s.finish(c) })
		return
	}
	c.remaining = 0
	s.noteTight(c.resources)
	s.detach(c)
	s.reallocAround(nil, c.resources)
	if c.OnDone != nil {
		c.OnDone()
	}
}
