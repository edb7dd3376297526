package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// operation share a trace id; Parent is the id of the enclosing span
// (0 for a root). Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg is the running total for one span name. Self excludes the
// part of each span's interval its child spans cover.
type spanAgg struct {
	N     int
	Total time.Duration
	Self  time.Duration
}

// keepSpans bounds the spans retained for -trace-out; aggregates keep
// counting past it, so the E14 replay's millions of register spans cost
// no memory.
const keepSpans = 200_000

type openSpan struct {
	name     string
	id       int
	start    time.Time
	children time.Duration
}

// recorder is the benchmark's own tracer: spans are recorded around the
// calls the benchmark makes into each layer, never inside the program.
// It is single-goroutine, like every workload. A nil recorder records
// nothing, so the same driving code serves traced and untraced runs.
type recorder struct {
	t0      time.Time
	trace   int
	nextID  int
	stack   []openSpan
	spans   []span
	dropped int
	agg     map[string]*spanAgg
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), agg: map[string]*spanAgg{}}
}

// op starts a new operation: later spans carry a fresh trace id.
func (r *recorder) op() {
	if r != nil {
		r.trace++
	}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	r.nextID++
	r.stack = append(r.stack, openSpan{name: name, id: r.nextID, start: time.Now()})
}

// end closes the innermost open span and returns its duration.
func (r *recorder) end() time.Duration {
	if r == nil {
		return 0
	}
	now := time.Now()
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := now.Sub(top.start)
	parent := 0
	if n := len(r.stack); n > 0 {
		r.stack[n-1].children += dur
		parent = r.stack[n-1].id
	}
	a := r.agg[top.name]
	if a == nil {
		a = &spanAgg{}
		r.agg[top.name] = a
	}
	a.N++
	a.Total += dur
	a.Self += dur - top.children
	if len(r.spans) < keepSpans {
		r.spans = append(r.spans, span{
			Name: top.name, Trace: r.trace, ID: top.id, Parent: parent,
			Start: top.start.Sub(r.t0).Nanoseconds(), End: now.Sub(r.t0).Nanoseconds(),
		})
	} else {
		r.dropped++
	}
	return dur
}

// do records fn as one span.
func (r *recorder) do(name string, fn func()) {
	r.begin(name)
	fn()
	r.end()
}

// get returns the aggregate for a span name (zero when never recorded).
func (r *recorder) get(name string) spanAgg {
	if r == nil || r.agg[name] == nil {
		return spanAgg{}
	}
	return *r.agg[name]
}

// selfOf sums self time over every span name with the given prefix.
func (r *recorder) selfOf(prefix string) time.Duration {
	var d time.Duration
	for name, a := range r.agg {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			d += a.Self
		}
	}
	return d
}

// mean is the mean duration of one span of the given name in the unit
// given (time.Microsecond for µs, ...); 0 when never recorded.
func (r *recorder) mean(name string, unit time.Duration) float64 {
	a := r.get(name)
	if a.N == 0 {
		return 0
	}
	return float64(a.Total) / float64(a.N) / float64(unit)
}

// write dumps the retained spans and the per-name aggregates as JSON.
func (r *recorder) write(path string) error {
	type aggOut struct {
		Name    string `json:"name"`
		N       int    `json:"n"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	out := struct {
		Spans   []span   `json:"spans"`
		Dropped int      `json:"spans_dropped"`
		Agg     []aggOut `json:"aggregates"`
	}{Spans: r.spans, Dropped: r.dropped}
	for name, a := range r.agg {
		out.Agg = append(out.Agg, aggOut{name, a.N, a.Total.Nanoseconds(), a.Self.Nanoseconds()})
	}
	sort.Slice(out.Agg, func(i, j int) bool { return out.Agg[i].Name < out.Agg[j].Name })
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
