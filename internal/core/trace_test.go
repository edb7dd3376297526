package core

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// spansNamed lists tr's spans called name, in begin order.
func spansNamed(tr *obs.Tracer, name string) []*obs.Span {
	var out []*obs.Span
	for _, s := range tr.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestFigure2SpanOrder asserts the paper's 1a..7 arrow ordering is
// recoverable from the trace spans alone — without consulting the
// Figure2Result — which is the property the obs layer exists for.
func TestFigure2SpanOrder(t *testing.T) {
	res, tr, err := Figure2Traced(42)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFigure2(res); err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("Figure2Traced returned a nil tracer")
	}
	steps := spansNamed(tr, "fig2.step")
	if len(steps) != len(Figure2ExpectedSteps) {
		t.Fatalf("got %d fig2.step spans, want %d", len(steps), len(Figure2ExpectedSteps))
	}
	var roots []uint64
	for i, s := range steps {
		got := ""
		for _, a := range s.Attrs {
			if a.Key == "step" {
				got = a.Val
			}
		}
		if got != Figure2ExpectedSteps[i] {
			t.Errorf("span %d: step %q, want %q", i, got, Figure2ExpectedSteps[i])
		}
		roots = append(roots, s.Parent)
	}
	// Every step hangs off the single root "fig2" span.
	fig2 := spansNamed(tr, "fig2")
	if len(fig2) != 1 {
		t.Fatalf("got %d fig2 root spans, want 1", len(fig2))
	}
	for i, p := range roots {
		if p != fig2[0].ID {
			t.Errorf("step span %d parented to %d, want root %d", i, p, fig2[0].ID)
		}
	}
	// The protocol work is visible too: two issues (1a/1b) and one redeem
	// (5) as causal children inside the run.
	if n := len(spansNamed(tr, "sharp.issue")); n != 2 {
		t.Errorf("got %d sharp.issue spans, want 2", n)
	}
	if n := len(spansNamed(tr, "sharp.redeem")); n != 1 {
		t.Errorf("got %d sharp.redeem spans, want 1", n)
	}
}

// TestTracedRunMatchesUntraced gates the zero-perturbation property:
// enabling tracing must not change what the scenario does — same trace
// steps, same artifacts — because instrumentation adds no engine events
// and no rng draws.
func TestTracedRunMatchesUntraced(t *testing.T) {
	plain, err := Figure2(7)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := Figure2Traced(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Trace) != len(traced.Trace) {
		t.Fatalf("step counts differ: %d vs %d", len(plain.Trace), len(traced.Trace))
	}
	for i := range plain.Trace {
		if plain.Trace[i] != traced.Trace[i] {
			t.Errorf("step %d differs: %+v vs %+v", i, plain.Trace[i], traced.Trace[i])
		}
	}
}

// TestTraceDeterminism is the byte-identity gate: the same seeded
// scenario exported twice must produce identical JSONL, byte for byte.
func TestTraceDeterminism(t *testing.T) {
	runs := map[string]func() ([]byte, error){
		"fig2": func() ([]byte, error) {
			_, tr, err := Figure2Traced(42)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := tr.WriteJSONL(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		"delegation": func() ([]byte, error) {
			tr, err := TraceDelegation(42)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := tr.WriteJSONL(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
	}
	for name, run := range runs {
		a, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same-seed JSONL differs (%d vs %d bytes)", name, len(a), len(b))
		}
		if len(a) == 0 {
			t.Errorf("%s: trace is empty", name)
		}
	}
}

// TestTraceDelegationShape sanity-checks the delegation scenario's causal
// story: a failover redeploy happens and nests a redeem under it.
func TestTraceDelegationShape(t *testing.T) {
	tr, err := TraceDelegation(42)
	if err != nil {
		t.Fatal(err)
	}
	fails := spansNamed(tr, "svc.site_failed")
	if len(fails) != 1 {
		t.Fatalf("got %d svc.site_failed spans, want 1", len(fails))
	}
	// The failover's replacement deploy is a child of the failure span.
	child := false
	for _, s := range spansNamed(tr, "broker.deploy") {
		if s.Parent == fails[0].ID {
			child = true
		}
	}
	if !child {
		t.Error("no broker.deploy span parented to the svc.site_failed span")
	}
	if len(spansNamed(tr, "svc.reconcile")) != 1 {
		t.Error("expected exactly one svc.reconcile span")
	}
}
