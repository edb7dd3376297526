package simnet

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestStartFlowRefusesNonFinite: bytes that are not finite and positive,
// and a weight that is not finite, are refused at StartFlow. Admitted,
// NaN bytes panicked inside the fluid system, +Inf bytes and a NaN weight
// completed at once at an infinite rate, and a +Inf weight never
// completed.
func TestStartFlowRefusesNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bytes  float64
		weight float64
	}{
		{"NaN bytes", math.NaN(), 1},
		{"+Inf bytes", math.Inf(1), 1},
		{"NaN weight", 1e6, math.NaN()},
		{"+Inf weight", 1e6, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			n := New(eng)
			n.AddSite("A", 0, 0)
			n.AddSite("B", 30, 0)
			n.AddHost("a1", "A", 1e6)
			n.AddHost("b1", "B", 1e6)
			f, err := n.StartFlow("a1", "b1", tc.bytes, FlowOpts{Weight: tc.weight}, nil)
			if err == nil {
				eng.RunUntil(time.Hour)
				t.Fatalf("accepted: done=%v after %v, %d flows active an hour later", f.done, f.Duration(), n.ActiveFlows())
			}
			if n.flowSeq != 0 || n.ActiveFlows() != 0 || eng.Pending() != 0 {
				t.Errorf("refused flow left %d started, %d active, %d events", n.flowSeq, n.ActiveFlows(), eng.Pending())
			}
		})
	}
}

// TestPooledFlowAllocatesPerFlow: a pooled three-stream flow over paths
// of unequal speed re-splits more often the more it moves, and it re-arms
// the streams it drops, so its allocations are a per-flow count: the
// same for 1 MB as for 64 MB.
func TestPooledFlowAllocatesPerFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	for i, h := range []struct {
		name string
		bps  float64
	}{{"o", 1e7}, {"d", 1e7}, {"r1", 1e6}, {"r2", 2e6}} {
		n.AddSite(h.name, float64(10*i), 0)
		n.AddHost(h.name, h.name, h.bps)
	}
	opts := FlowOpts{Streams: 3, Pooled: true, Paths: [][]string{nil, {"r1"}, {"r2"}}}
	move := func(bytes float64) func() {
		return func() {
			f, err := n.StartFlow("o", "d", bytes, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if !f.done {
				t.Fatalf("%v B flow never completed", bytes)
			}
		}
	}
	small, large := move(1e6), move(64e6)
	large() // warm the engine's queue and free list at the larger size
	events := func(run func()) uint64 {
		before := eng.Processed()
		run()
		return eng.Processed() - before
	}
	es, el := events(small), events(large)
	if el <= es {
		t.Fatalf("64 MB fired %d completions, 1 MB %d: the re-splits do not grow with size", el, es)
	}
	as, al := testing.AllocsPerRun(20, small), testing.AllocsPerRun(20, large)
	if as != al {
		t.Errorf("a pooled flow allocates %.0f objects at 1 MB but %.0f at 64 MB (%d vs %d completions)", as, al, es, el)
	}
	t.Logf("%.0f allocations per flow; %d completions at 1 MB, %d at 64 MB", as, es, el)
}
