package obs

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// Counter is a read-only handle on a named count. Counters are
// pull-style, like gauges: a component registers a reader over the
// field it already keeps (CounterFunc), and the tracer reads it only
// when asked, so no event is tallied twice.
type Counter struct {
	t    *Tracer
	name string
}

// Value returns the sum of the name's readers now (0 on a nil tracer or
// an unregistered name).
func (c Counter) Value() uint64 {
	if c.t == nil {
		return 0
	}
	var n uint64
	for _, fn := range c.t.counters[c.name] {
		n += fn()
	}
	return n
}

// Counter returns a handle on the named counter. It registers nothing.
func (t *Tracer) Counter(name string) Counter { return Counter{t: t, name: name} }

// CounterFunc registers a reader for the named counter. Readers under
// one name sum, so per-site components each register their own.
func (t *Tracer) CounterFunc(name string, fn func() uint64) {
	if t == nil {
		return
	}
	t.counters[name] = append(t.counters[name], fn)
}

// Hist is a histogram of virtual-time durations (span latencies, queue
// waits). A nil *Hist is valid and does nothing.
type Hist struct {
	Name string
	s    metrics.Sample
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	if h != nil {
		h.s.Add(d.Seconds())
	}
}

// N returns the observation count (0 on nil).
func (h *Hist) N() int {
	if h == nil {
		return 0
	}
	return h.s.N()
}

// Quantile returns the q-th quantile in seconds (0 on nil).
func (h *Hist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.s.Quantile(q)
}

// Hist returns (registering on first use) the named histogram, or nil
// when the tracer is nil.
func (t *Tracer) Hist(name string) *Hist {
	if t == nil {
		return nil
	}
	h, ok := t.hists[name]
	if !ok {
		h = &Hist{Name: name}
		t.hists[name] = h
	}
	return h
}

// GaugeFunc registers a named gauge backed by a callback (engine queue
// depth, processed events, inventory levels). Gauges are pull-style:
// nothing is recorded until SampleGauges snapshots them, so registering
// a gauge never perturbs the event schedule.
func (t *Tracer) GaugeFunc(name string, fn func() float64) {
	if t == nil {
		return
	}
	t.gaugeNames = append(t.gaugeNames, name)
	t.gaugeFns = append(t.gaugeFns, fn)
}

// SampleGauges records one sample of every registered gauge at the
// current virtual time, in registration order.
func (t *Tracer) SampleGauges() {
	if t == nil {
		return
	}
	now := t.eng.Now()
	for i, name := range t.gaugeNames {
		t.log = append(t.log, rec{kind: recGauge, at: now, name: name, val: t.gaugeFns[i]()})
	}
}

// BindEngine registers the kernel's own health gauges — event-queue
// depth and processed-event count — on the tracer.
func (t *Tracer) BindEngine() {
	if t == nil {
		return
	}
	eng := t.eng
	t.GaugeFunc("engine.pending", func() float64 { return float64(eng.Pending()) })
	t.GaugeFunc("engine.processed", func() float64 { return float64(eng.Processed()) })
}

// counterNames returns registered counter names, sorted for export.
func (t *Tracer) counterNames() []string {
	names := make([]string, 0, len(t.counters))
	for name := range t.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// histNames returns registered histogram names, sorted for export.
func (t *Tracer) histNames() []string {
	names := make([]string, 0, len(t.hists))
	for name := range t.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
