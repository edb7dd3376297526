// Package obs is gridlab's deterministic observability layer: causal
// spans and a metrics registry, both bound to the sim.Engine virtual
// clock. It exists because the paper's comparison is ultimately about
// observable mechanism behaviour — who sent what to whom, when tickets
// became leases (Figure 2's 1a/1b→7 ordering), and how control traffic
// grows with scale — and because monitoring is itself a first-class
// Grid service in the VO model.
//
// Design rules:
//
//   - Everything is virtual-time: span begin/end and gauge samples carry
//     Engine.Now() durations, never the wall clock, so the same seed
//     yields a byte-identical trace.
//   - The nil *Tracer is the off switch: every method (and every method
//     of the instruments it hands out) is nil-safe and does no work, so
//     instrumented hot paths cost one branch when tracing is disabled.
//   - Counters and gauges are pull-style: the tracer holds readers over
//     the counts components already keep, never a second tally.
//   - Causality is explicit: the kernel is single-threaded, so the
//     tracer keeps a single "active" span that Scope installs around a
//     callback — the span-context handle is passed by value through
//     scheduled events and simnet deliveries, never via goroutine-local
//     state.
package obs

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Attr is one key=value span or event attribute. Attributes are ordered
// (a slice, not a map) so exports are deterministic.
type Attr struct {
	Key string
	Val string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Val: fmt.Sprint(v)} }

// Float builds a float attribute (rendered compactly with %g).
func Float(k string, v float64) Attr { return Attr{Key: k, Val: fmt.Sprintf("%g", v)} }

// Dur builds a duration attribute.
func Dur(k string, v time.Duration) Attr { return Attr{Key: k, Val: v.String()} }

// Err builds an "err" attribute ("" for nil).
func Err(e error) Attr {
	if e == nil {
		return Attr{Key: "err", Val: ""}
	}
	return Attr{Key: "err", Val: e.Error()}
}

// Span is one causally linked interval of virtual time. IDs are
// sequential from 1; Parent 0 means a root span.
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	Begin  time.Duration
	End    time.Duration
	Open   bool // still open (End not yet called)
	Attrs  []Attr
}

// recKind tags entries of the chronological event log.
type recKind uint8

const (
	recBegin recKind = iota
	recEnd
	recPoint
	recGauge
)

// rec is one entry of the chronological event log the JSONL exporter
// writes. Spans additionally live in Tracer.spans for interval exports.
type rec struct {
	kind   recKind
	at     time.Duration
	span   uint64
	parent uint64
	name   string
	val    float64
	attrs  []Attr
}

// SpanContext is the explicit causal handle: a (tracer, span-ID) pair
// passed by value through scheduled events and message deliveries. The
// zero SpanContext is inert.
type SpanContext struct {
	tr *Tracer
	id uint64
}

// Valid reports whether the context names a live tracer span.
func (c SpanContext) Valid() bool { return c.tr != nil && c.id != 0 }

// ID returns the span ID (0 for the zero context).
func (c SpanContext) ID() uint64 { return c.id }

// Tracer records spans, point events, and metrics against an engine's
// virtual clock. A nil *Tracer is valid and records nothing.
type Tracer struct {
	eng    *sim.Engine
	spans  []*Span // index = ID-1
	log    []rec
	active SpanContext

	counters   map[string][]func() uint64
	hists      map[string]*Hist
	gaugeNames []string
	gaugeFns   []func() float64
}

// NewTracer returns a tracer bound to the engine's virtual clock.
func NewTracer(eng *sim.Engine) *Tracer {
	if eng == nil {
		panic("obs: nil engine")
	}
	return &Tracer{
		eng:      eng,
		counters: make(map[string][]func() uint64),
		hists:    make(map[string]*Hist),
	}
}

// Begin opens a span as a child of the currently active span (a root
// span when none is active) and returns its context. It does not change
// the active span; use Scope to run work under it.
func (t *Tracer) Begin(name string, attrs ...Attr) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return t.BeginUnder(t.active, name, attrs...)
}

// BeginUnder opens a span under an explicit parent context (which may be
// the zero context for a root span).
func (t *Tracer) BeginUnder(parent SpanContext, name string, attrs ...Attr) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	id := uint64(len(t.spans) + 1)
	s := &Span{
		ID:     id,
		Parent: parent.id,
		Name:   name,
		Begin:  t.eng.Now(),
		Open:   true,
		Attrs:  append([]Attr(nil), attrs...),
	}
	t.spans = append(t.spans, s)
	t.log = append(t.log, rec{kind: recBegin, at: s.Begin, span: id, parent: s.Parent, name: name, attrs: s.Attrs})
	return SpanContext{tr: t, id: id}
}

// span resolves a context to its span (nil for inert contexts).
func (c SpanContext) span() *Span {
	if !c.Valid() {
		return nil
	}
	return c.tr.spans[c.id-1]
}

// End closes the span at the current virtual time, appending any final
// attributes. Ending an already closed span or the zero context is a
// no-op, so cleanup paths may End unconditionally.
func (c SpanContext) End(attrs ...Attr) {
	s := c.span()
	if s == nil || !s.Open {
		return
	}
	s.Open = false
	s.End = c.tr.eng.Now()
	s.Attrs = append(s.Attrs, attrs...)
	c.tr.log = append(c.tr.log, rec{kind: recEnd, at: s.End, span: s.ID, name: s.Name, attrs: attrs})
}

// Annotate appends attributes to an open span.
func (c SpanContext) Annotate(attrs ...Attr) {
	if s := c.span(); s != nil && s.Open {
		s.Attrs = append(s.Attrs, attrs...)
	}
}

// Event records a point event under the span.
func (c SpanContext) Event(name string, attrs ...Attr) {
	if !c.Valid() {
		return
	}
	c.tr.log = append(c.tr.log, rec{
		kind: recPoint, at: c.tr.eng.Now(), span: c.id, name: name,
		attrs: append([]Attr(nil), attrs...),
	})
}

// Event records a point event under the active span (root when none).
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.log = append(t.log, rec{
		kind: recPoint, at: t.eng.Now(), span: t.active.id, name: name,
		attrs: append([]Attr(nil), attrs...),
	})
}

// Active returns the currently active span context (zero when none).
func (t *Tracer) Active() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return t.active
}

// Scope runs fn with ctx installed as the active span, restoring the
// previous active span afterwards. This is the causal propagation rule:
// whoever schedules work on the engine wraps the callback in Scope with
// the span it should be attributed to. On a nil tracer it just runs fn.
func (t *Tracer) Scope(ctx SpanContext, fn func()) {
	if t == nil {
		fn()
		return
	}
	prev := t.active
	t.active = ctx
	fn()
	t.active = prev
}

// EnterScope installs ctx as the active span and returns the function
// that restores the previous one — the paired form of Scope, for call
// sites with early returns (defer the restore). On a nil tracer it is a
// no-op and returns a no-op.
func (t *Tracer) EnterScope(ctx SpanContext) func() {
	if t == nil {
		return func() {}
	}
	prev := t.active
	t.active = ctx
	return func() { t.active = prev }
}

// Schedule is the propagation-preserving twin of Engine.Schedule: fn
// runs after delay with ctx as the active span.
func (t *Tracer) Schedule(delay time.Duration, ctx SpanContext, fn func()) sim.Event {
	if t == nil {
		panic("obs: Schedule on nil tracer (schedule on the engine directly)")
	}
	return t.eng.Schedule(delay, func() { t.Scope(ctx, fn) })
}

// Spans returns the recorded spans in begin order.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// FindSpans returns all spans with the given name, in begin order.
func (t *Tracer) FindSpans(name string) []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
