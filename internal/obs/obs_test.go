package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSpanParentAndTimes(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTracer(eng)
	root := tr.Begin("root", String("k", "v"))
	var child SpanContext
	tr.Schedule(10*time.Millisecond, root, func() {
		child = tr.Begin("child")
		tr.Schedule(5*time.Millisecond, child, func() {
			child.End(Int("n", 3))
		})
	})
	eng.Run()
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	r, c := spans[0], spans[1]
	if r.Parent != 0 || c.Parent != r.ID {
		t.Errorf("parents: root=%d child=%d (root ID %d)", r.Parent, c.Parent, r.ID)
	}
	if c.Begin != 10*time.Millisecond || c.End != 15*time.Millisecond {
		t.Errorf("child interval [%v,%v], want [10ms,15ms]", c.Begin, c.End)
	}
	if c.Open {
		t.Error("child still open")
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != (Attr{Key: "n", Val: "3"}) {
		t.Errorf("child attrs = %v", c.Attrs)
	}
}

func TestScopeRestoresActive(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTracer(eng)
	a := tr.Begin("a")
	tr.Scope(a, func() {
		if tr.active != a {
			t.Error("active not installed")
		}
		b := tr.Begin("b")
		if b.span().Parent != a.id {
			t.Error("b not parented to a")
		}
	})
	if tr.active.Valid() {
		t.Error("active not restored")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	ctx := tr.Begin("x", String("a", "b"))
	ctx.End()
	ctx.Annotate(Int("n", 1))
	ctx.Event("e")
	tr.Event("e2")
	tr.CounterFunc("c", func() uint64 { return 10 })
	if v := tr.Counter("c").Value(); v != 0 {
		t.Errorf("nil tracer counter = %d, want 0", v)
	}
	tr.Hist("h").Observe(time.Second)
	tr.GaugeFunc("g", func() float64 { return 1 })
	tr.SampleGauges()
	tr.BindEngine()
	ran := false
	tr.Scope(ctx, func() { ran = true })
	if !ran {
		t.Fatal("Scope did not run fn on nil tracer")
	}
	if tr.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL = (%q, %v)", buf.String(), err)
	}
}

func TestEndIdempotentAndDoubleEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTracer(eng)
	s := tr.Begin("s")
	s.End()
	endAt := s.span().End
	eng.Schedule(time.Second, func() { s.End(String("late", "yes")) })
	eng.Run()
	if s.span().End != endAt {
		t.Error("second End moved the end time")
	}
	for _, a := range s.span().Attrs {
		if a.Key == "late" {
			t.Error("second End appended attrs")
		}
	}
}

func TestCountersGaugesHists(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTracer(eng)
	msgs := uint64(3)
	tr.CounterFunc("net.msgs", func() uint64 { return msgs })
	if v := tr.Counter("net.msgs").Value(); v != 3 {
		t.Errorf("counter = %d, want 3", v)
	}
	h := tr.Hist("rtt")
	h.Observe(100 * time.Millisecond)
	h.Observe(300 * time.Millisecond)
	if h.N() != 2 || h.Quantile(1) != 0.3 {
		t.Errorf("hist n=%d max=%v", h.N(), h.Quantile(1))
	}
	v := 7.0
	tr.GaugeFunc("depth", func() float64 { return v })
	tr.SampleGauges()
	v = 9
	eng.Schedule(time.Second, func() { tr.SampleGauges() })
	eng.Run()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var gauges []float64
	for _, line := range lines {
		var r struct {
			T    string  `json:"t"`
			Name string  `json:"name"`
			V    float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if r.T == "gauge" {
			gauges = append(gauges, r.V)
		}
	}
	if len(gauges) != 2 || gauges[0] != 7 || gauges[1] != 9 {
		t.Errorf("gauge samples = %v, want [7 9]", gauges)
	}
}

func TestJSONLDeterministic(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine(42)
		tr := NewTracer(eng)
		tr.BindEngine()
		steps := 0
		tr.CounterFunc("steps", func() uint64 { return uint64(steps) })
		root := tr.Begin("run", String("seed", "42"))
		for i := 0; i < 5; i++ {
			i := i
			tr.Schedule(time.Duration(i)*time.Millisecond, root, func() {
				s := tr.Begin("step", Int("i", i))
				steps++
				tr.Hist("lat").Observe(time.Duration(i) * time.Millisecond)
				s.End()
			})
		}
		eng.Run()
		tr.SampleGauges()
		root.End()
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed JSONL differs:\n%s\n----\n%s", a, b)
	}
	if !strings.Contains(a, `"t":"counter"`) || !strings.Contains(a, `"t":"hist"`) {
		t.Error("summary records missing")
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTracer(eng)
	s := tr.Begin("outer", String("site", "A"))
	tr.Scope(s, func() {
		in := tr.Begin("inner")
		in.Event("mark", Int("x", 1))
		in.End()
	})
	s.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(evs) != 3 { // 2 X spans + 1 instant
		t.Errorf("got %d events, want 3", len(evs))
	}
}

func TestTimelineRenders(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTracer(eng)
	a := tr.Begin("alpha")
	eng.Schedule(time.Second, func() {})
	eng.Run()
	b := tr.BeginUnder(a, "beta")
	b.End()
	a.End()
	tr.CounterFunc("c", func() uint64 { return 1 })
	var buf bytes.Buffer
	tr.WriteTimeline(&buf, 40)
	out := buf.String()
	for _, want := range []string{"alpha", "  beta", "counter", "2 spans"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestCounterRegistry pins the pull-style counter semantics: readers
// are read at call time, readers under one name sum, and only names
// with a reader are exported, in name order.
func TestCounterRegistry(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTracer(eng)
	if v := tr.Counter("unregistered").Value(); v != 0 {
		t.Errorf("unregistered counter = %d, want 0", v)
	}
	var a, b uint64
	tr.CounterFunc("sites.b", func() uint64 { return b })
	tr.CounterFunc("sites.a", func() uint64 { return a })
	tr.CounterFunc("sites.a", func() uint64 { return 2 * a })
	a, b = 5, 1 // after registration: readers see it
	if v := tr.Counter("sites.a").Value(); v != 15 {
		t.Errorf("summed counter = %d, want 15", v)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r struct {
			T    string `json:"t"`
			Name string `json:"name"`
			N    uint64 `json:"n"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if r.T == "counter" {
			got = append(got, fmt.Sprintf("%s=%d", r.Name, r.N))
		}
	}
	if want := "[sites.a=15 sites.b=1]"; fmt.Sprint(got) != want {
		t.Errorf("counter records = %v, want %s", got, want)
	}
}
