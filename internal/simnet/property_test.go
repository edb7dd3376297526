package simnet

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// TestFlowConservationProperty: for arbitrary concurrent flow sets, every
// byte is eventually delivered (all flows complete when no failures are
// injected), aggregate goodput never exceeds the sum of access-link
// capacities, and completion order respects work/capacity feasibility.
func TestFlowConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		eng := sim.NewEngine(7)
		n := New(eng)
		n.AddSite("A", 0, 0)
		n.AddSite("B", 30, 0)
		n.AddSite("C", 10, 20)
		hosts := []string{"hA", "hB", "hC"}
		linkBps := 1e6
		n.AddHost("hA", "A", linkBps)
		n.AddHost("hB", "B", linkBps)
		n.AddHost("hC", "C", linkBps)

		type result struct {
			bytes float64
			dur   time.Duration
		}
		var results []result
		total := 0.0
		count := 0
		for i := 0; i+2 < len(raw) && count < 12; i += 3 {
			src := hosts[int(raw[i])%3]
			dst := hosts[int(raw[i+1])%3]
			if src == dst {
				continue
			}
			bytes := float64(int(raw[i+2])%100+1) * 1e4
			streams := int(raw[i])%3 + 1
			total += bytes
			count++
			_, err := n.StartFlow(src, dst, bytes, FlowOpts{Streams: streams}, func(fl *Flow) {
				results = append(results, result{bytes: fl.Bytes, dur: fl.Duration()})
			})
			if err != nil {
				return false
			}
		}
		eng.Run()
		if len(results) != count {
			return false // a flow never completed
		}
		delivered := 0.0
		for _, r := range results {
			delivered += r.bytes
			// A flow can never beat its own bottleneck link.
			if r.dur > 0 && r.bytes/r.dur.Seconds() > linkBps*1.001 {
				return false
			}
		}
		// Conservation: exactly the submitted bytes were delivered.
		if delivered < total*0.999 || delivered > total*1.001 {
			return false
		}
		// Aggregate goodput bound: total bytes / makespan cannot exceed
		// the bisection capacity (3 uplinks).
		if eng.Now() > 0 && total/eng.Now().Seconds() > 3*linkBps*1.001 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Unit property beyond TestDeterminism: random flow programs, not only the cdn and E8 shapes, finish alike on a rerun.
func TestFlowDeterminismProperty(t *testing.T) {
	run := func(raw []uint8) []time.Duration {
		eng := sim.NewEngine(5)
		n := New(eng)
		n.AddSite("A", 0, 0)
		n.AddSite("B", 25, 5)
		n.AddHost("a", "A", 2e6)
		n.AddHost("b", "B", 1e6)
		n.SetLoss("A", "B", 0.002)
		var ends []time.Duration
		for i := 0; i+1 < len(raw) && i < 16; i += 2 {
			bytes := float64(int(raw[i])%50+1) * 1e4
			streams := int(raw[i+1])%4 + 1
			n.StartFlow("a", "b", bytes, FlowOpts{Streams: streams}, func(fl *Flow) {
				ends = append(ends, eng.Now())
			})
		}
		eng.Run()
		return ends
	}
	f := func(raw []uint8) bool {
		x, y := run(raw), run(raw)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestManyFlowsScale exercises the fluid engine with a few hundred
// concurrent flows as a smoke-scale guard.
func TestManyFlowsScale(t *testing.T) {
	eng := sim.NewEngine(2)
	n := New(eng)
	for s := 0; s < 10; s++ {
		n.AddSite(fmt.Sprintf("S%d", s), float64(s*7), float64((s*13)%31))
		n.AddHost(fmt.Sprintf("h%d", s), fmt.Sprintf("S%d", s), 1e6)
	}
	done, started := 0, 0
	for i := 0; i < 300; i++ {
		src := fmt.Sprintf("h%d", i%10)
		dst := fmt.Sprintf("h%d", (i+1+i/10)%10)
		if src == dst {
			continue
		}
		started++
		if _, err := n.StartFlow(src, dst, 1e5+float64(i)*1e3, FlowOpts{Streams: 1 + i%3},
			func(*Flow) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != started {
		t.Errorf("completed %d of %d flows", done, started)
	}
}
