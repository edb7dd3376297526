// Package sim provides the deterministic discrete-event simulation kernel
// that every other gridlab subsystem runs on.
//
// The kernel models virtual time as a time.Duration offset from a zero
// epoch. Events are callbacks scheduled at absolute virtual times and are
// executed in (time, sequence) order, so runs are fully deterministic for
// a given seed and schedule, regardless of host scheduling or map
// iteration order.
//
// The kernel is intentionally single-threaded: gridlab simulates wide-area
// concurrency by interleaving events, not by running goroutines, which is
// what makes traces reproducible and assertable in tests. That same
// single-threadedness is what makes the hot-path machinery below safe:
// an event is a Firer, so a value that schedules itself needs no closure;
// event nodes live on a per-engine free list and are recycled across
// schedules, cancellation is lazy (tombstones are skipped at pop time and
// compacted away when they dominate the heap), and the priority queue is a
// 4-ary index-addressed heap, which trades a slightly costlier sift-down
// for half the tree depth and far fewer cache misses than the binary
// container/heap it replaced.
//
// Because nodes are recycled, the Event values handed to callers are
// generation-stamped handles, not raw pointers: a handle whose node has
// since fired (or been swept) no longer matches the node's generation, so
// Cancel on a stale handle is a guaranteed no-op rather than a use-after-
// reuse bug. The zero Event is inert.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Firer is what an event does. A pointer Firer schedules without
// allocating and the snapshot walker follows it; a func is a leaf.
type Firer interface{ Fire() }

// fireFunc is a callback as a Firer: pointer-shaped, it boxes for free.
type fireFunc func()

func (f fireFunc) Fire() { f() }

// node is the kernel-owned state of one scheduled event. Nodes live in
// the engine's nodes slice, addressed by index, and are recycled through
// the free list; the generation counter is bumped on every recycle so
// stale Event handles cannot reach them. The ordering keys (at, seq) live
// in the heap slot, not here, so sift comparisons never touch nodes.
type node struct {
	fire Firer // nil in a tombstone: cancelled, awaiting pop or compaction
	gen  uint64
}

// slot is one heap entry: the (at, seq) ordering key inline plus the
// index of the node it orders. Slots are pointer-free, so the queue is
// never scanned by the collector and sift moves incur no write barriers.
type slot struct {
	at  time.Duration
	seq uint64
	idx int32
}

// Event is a generation-stamped handle to a scheduled callback. It is a
// small value, cheap to copy and store; the zero Event is inert (Cancel
// and Cancelled on it are no-ops). Handles are single-use: once the event
// fires or is cancelled and reclaimed, the handle goes stale and all
// operations on it are no-ops.
type Event struct {
	eng *Engine
	idx int32
	gen uint64
	at  time.Duration
}

// live reports whether the handle still names a pending, uncancelled
// event.
func (e Event) live() bool {
	if e.eng == nil || int(e.idx) >= len(e.eng.nodes) {
		return false
	}
	nd := &e.eng.nodes[e.idx]
	return nd.gen == e.gen && nd.fire != nil
}

// compactMin is the queue length below which tombstone compaction is never
// triggered: small heaps drain tombstones through pops faster than a
// rebuild pays off.
const compactMin = 256

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; all simulated activity happens on the calling goroutine.
// (Fanning whole engines out across goroutines — one private engine per
// run — is the job of internal/perf, the one audited owner of
// cross-goroutine execution.)
type Engine struct {
	now   time.Duration
	seq   uint64
	q     []slot  // 4-ary min-heap by (at, seq); may contain tombstones
	live  int     // pending uncancelled events (Pending is O(1))
	nodes []node  // index-stable backing store (appended, never shrunk)
	free  []int32 // recycled node indexes
	rng   *rand.Rand
	// processed counts events executed, for test and debug assertions.
	processed uint64

	// genCounter is the source of every node generation ever minted. It is
	// engine-global and monotonic, and — critically — it is the one piece
	// of kernel state a Fork never rewinds: generations are unique across
	// all timelines, so an Event handle minted in an abandoned timeline can
	// never match a node in a later one (see snap.go).
	genCounter uint64

	// Snapshot registry (see snap.go): snapRoots anchors layer state for
	// the deep-capture walker. It lives on the Engine struct so a restore
	// truncates it to its snapshot-time length automatically.
	snapRoots []snapRoot
}

// NewEngine returns an engine at virtual time zero whose random stream is
// derived from seed. Two engines with equal seeds and schedules produce
// identical runs.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// ForkRand returns an independent deterministic random stream derived from
// the engine seed stream. Use one per subsystem so adding draws in one
// subsystem does not perturb another.
func (e *Engine) ForkRand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// nextGen mints a fresh, never-before-used node generation. Generations
// come from the engine-global counter rather than per-node bumps so that
// no generation is ever reused — not even across Fork rewinds, which
// restore node state but deliberately leave the counter alone.
func (e *Engine) nextGen() uint64 {
	e.genCounter++
	return e.genCounter
}

// alloc hands out a node index from the free list, growing the backing
// slice when it runs dry; append's growth policy amortizes allocation.
// Fresh nodes draw a generation immediately: a zero generation would
// collide with handles minted against index reuse after a Fork truncates
// and regrows the nodes slice.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.nodes = append(e.nodes, node{gen: e.nextGen()})
	return int32(len(e.nodes) - 1)
}

// release recycles a node: the fresh generation invalidates every
// outstanding handle, and dropping fire releases what the event held.
func (e *Engine) release(idx int32) {
	nd := &e.nodes[idx]
	nd.gen = e.nextGen()
	nd.fire = nil
	e.free = append(e.free, idx)
}

// Schedule runs fn after delay (>= 0) of virtual time. It returns the
// event so the caller may cancel it. Scheduling in the past panics: it
// would silently reorder causality.
func (e *Engine) Schedule(delay time.Duration, fn func()) Event {
	return e.ScheduleFire(delay, fireFunc(fn))
}

// ScheduleFire is Schedule for a value that is its own event.
func (e *Engine) ScheduleFire(delay time.Duration, f Firer) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.at(e.now+delay, f)
}

// At runs fn at absolute virtual time t (>= Now).
func (e *Engine) At(t time.Duration, fn func()) Event { return e.at(t, fireFunc(fn)) }

// at is the one scheduling path.
func (e *Engine) at(t time.Duration, f Firer) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn, ok := f.(fireFunc); f == nil || ok && fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	idx := e.alloc()
	nd := &e.nodes[idx]
	nd.fire = f
	e.push(slot{at: t, seq: e.seq, idx: idx})
	e.live++
	return Event{eng: e, idx: idx, gen: nd.gen, at: t}
}

// Cancel prevents a pending event from firing. Cancelling an already
// fired, already cancelled, or zero event is a no-op. Cancellation is
// lazy: the node stays queued as a tombstone and is skipped at pop time,
// with a compaction sweep when tombstones outnumber live events.
func (e *Engine) Cancel(ev Event) {
	if ev.eng != e || !ev.live() {
		return
	}
	e.nodes[ev.idx].fire = nil
	e.live--
	if len(e.q) >= compactMin && e.live*2 < len(e.q) {
		e.compact()
	}
}

// compact rebuilds the heap from its live events, releasing tombstones.
// The slot array is pointer-free, so the abandoned tail needs no clearing.
func (e *Engine) compact() {
	q := e.q[:0]
	for _, s := range e.q {
		if e.nodes[s.idx].fire == nil {
			e.release(s.idx)
		} else {
			q = append(q, s)
		}
	}
	e.q = q
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		e.down(i)
	}
}

// CancelAll cancels every pending event at once and recycles its node, so
// each outstanding handle goes stale and nothing a queued event held stays
// reachable. The clock stays where it is. It is how a finished simulation
// whose state is still read (a region index queried after its cell has
// run) stops pinning what its undelivered messages and tickers hold.
func (e *Engine) CancelAll() {
	for _, s := range e.q {
		e.release(s.idx)
	}
	e.q = e.q[:0]
	e.live = 0
}

// peek prunes tombstones off the top of the heap and returns the next
// live entry (ok=false when the queue is effectively empty).
func (e *Engine) peek() (slot, bool) {
	for len(e.q) > 0 {
		s := e.q[0]
		if e.nodes[s.idx].fire != nil {
			return s, true
		}
		e.release(e.popTop().idx)
	}
	return slot{}, false
}

// Step executes the single next event, advancing the clock to it. It
// reports false when the queue is empty.
func (e *Engine) Step() bool {
	s, ok := e.peek()
	if !ok {
		return false
	}
	e.popTop()
	e.now = s.at
	e.processed++
	e.live--
	f := e.nodes[s.idx].fire
	// Recycle before firing: outstanding handles are invalidated by the
	// generation bump, and a reschedule inside Fire (the Ticker pattern)
	// reuses this very node with zero allocation.
	e.release(s.idx)
	f.Fire()
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
// Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for {
		s, ok := e.peek()
		if !ok || s.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of queued (uncancelled) events. It is O(1):
// the kernel maintains the count incrementally across push, cancel, and
// pop.
func (e *Engine) Pending() int { return e.live }

// ---- 4-ary heap over (at, seq), keys inline in the slot array ---------

// push appends s and sifts it up.
func (e *Engine) push(s slot) {
	e.q = append(e.q, s)
	e.up(len(e.q) - 1)
}

// popTop removes and returns the root (callers check tombstones).
func (e *Engine) popTop() slot {
	q := e.q
	top := q[0]
	last := len(q) - 1
	s := q[last]
	e.q = q[:last]
	if last > 0 {
		e.q[0] = s
		e.down(0)
	}
	return top
}

// up sifts the entry at index i toward the root.
func (e *Engine) up(i int) {
	q := e.q
	s := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if q[p].at < s.at || (q[p].at == s.at && q[p].seq < s.seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
}

// down sifts the entry at index i toward the leaves using Floyd's
// bottom-up variant: the hole walks the min-child path all the way down
// (three comparisons per level instead of four), then the displaced entry
// sifts back up the same path — almost always a step or less, because in
// the pop-heavy case it came from the leaf layer. The ordering keys sit
// inline in q, so the child scan touches one or two cache lines and never
// dereferences a node.
func (e *Engine) down(i int) {
	q := e.q
	n := len(q)
	s := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		ba, bs := q[c].at, q[c].seq
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].at < ba || (q[j].at == ba && q[j].seq < bs) {
				best, ba, bs = j, q[j].at, q[j].seq
			}
		}
		q[i] = q[best]
		i = best
	}
	for i > 0 {
		p := (i - 1) / 4
		if q[p].at < s.at || (q[p].at == s.at && q[p].seq < s.seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
}

// Timer is a restartable one-shot timer bound to an engine, analogous to
// time.Timer but in virtual time.
type Timer struct {
	eng *Engine
	ev  Event
	fn  func()
}

// timerFirer is a Timer as its own event, keeping Fire off Timer's
// method set. It clears ev first, so Stop never cancels a stale handle.
type timerFirer Timer

func (f *timerFirer) Fire() {
	f.ev = Event{}
	f.fn()
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{eng: e, fn: fn}
}

// Reset (re)arms the timer to fire after d, cancelling any pending firing.
func (t *Timer) Reset(d time.Duration) {
	t.Stop()
	t.ev = t.eng.ScheduleFire(d, (*timerFirer)(t))
}

// Stop cancels a pending firing. It is a no-op on a stopped timer.
func (t *Timer) Stop() {
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Window is a scheduled apply/revoke pair: apply fires at a start time,
// revoke fires after a duration. It is the primitive fault injectors use
// to guarantee every injected fault is revoked exactly once — either by
// the scheduled revocation or by an early forced Revoke, never both.
type Window struct {
	eng      *Engine
	applyEv  Event
	revokeEv Event
	revokeFn func()
	applied  bool
	revoked  bool
}

// NewWindow schedules apply at absolute virtual time start and revoke at
// start+dur. Both callbacks are required; dur must be non-negative.
func (e *Engine) NewWindow(start, dur time.Duration, apply, revoke func()) *Window {
	if apply == nil || revoke == nil {
		panic("sim: nil window function")
	}
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative window duration %v", dur))
	}
	w := &Window{eng: e, revokeFn: revoke}
	w.applyEv = e.At(start, func() {
		w.applied = true
		apply()
		w.revokeEv = e.Schedule(dur, func() {
			w.revoked = true
			revoke()
		})
	})
	return w
}

// Revoke ends the window now: a pending apply is cancelled without ever
// firing; an active window's revoke callback runs immediately and its
// scheduled revocation is cancelled. Idempotent.
func (w *Window) Revoke() {
	if w.revoked {
		return
	}
	if !w.applied {
		w.revoked = true
		w.eng.Cancel(w.applyEv)
		return
	}
	w.revoked = true
	w.eng.Cancel(w.revokeEv)
	w.revokeFn()
}

// Ticker invokes fn every period until stopped. The ticker is its own
// event and (steady-state) one recycled event node serves its whole
// life, so ticking is allocation-free.
type Ticker struct {
	eng     *Engine
	period  time.Duration
	fn      func()
	ev      Event
	stopped bool
}

// tickerFirer is a Ticker as its own event, re-armed every period.
type tickerFirer Ticker

func (f *tickerFirer) Fire() {
	if f.stopped {
		return
	}
	f.fn()
	if !f.stopped {
		f.ev = f.eng.ScheduleFire(f.period, f)
	}
}

// NewTicker starts a ticker with the given period. The first tick fires
// one period from now.
func (e *Engine) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker period %v must be positive", period))
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.ev = e.ScheduleFire(period, (*tickerFirer)(t))
	return t
}

// Stop halts the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}
