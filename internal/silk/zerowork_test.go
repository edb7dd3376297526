package silk

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestZeroWorkCompletesAfterTheCall drives each API that arms a fluid
// completion with zero and sub-epsilon work. The callback must run once,
// in an event after the one that made the call, never inside the call;
// and once the engine drains, nothing the API tracks is left running.
// StartFlow refuses 0 bytes, so it runs with two sub-epsilon sizes.
func TestZeroWorkCompletesAfterTheCall(t *testing.T) {
	cases := []struct {
		api   string
		works []float64
		// arm makes the call; left counts what the API still tracks.
		arm func(t *testing.T, eng *sim.Engine, work float64, done func()) (left func() int)
	}{
		{"FluidSystem.Add", []float64{0, 1e-12}, func(t *testing.T, eng *sim.Engine, work float64, done func()) func() int {
			fs := sim.NewFluidSystem(eng)
			fs.Add(&sim.FluidConsumer{Name: "c", Weight: 1, OnDone: done}, work, fs.NewResource("r", 1))
			return func() int { return 0 }
		}},
		{"Network.StartFlow", []float64{1e-12, 5e-10}, func(t *testing.T, eng *sim.Engine, work float64, done func()) func() int {
			net := simnet.New(eng)
			net.AddSite("A", 0, 0)
			net.AddSite("B", 10, 0)
			net.AddHost("a", "A", 1e6)
			net.AddHost("b", "B", 1e6)
			if _, err := net.StartFlow("a", "b", work, simnet.FlowOpts{Streams: 2}, func(*simnet.Flow) { done() }); err != nil {
				t.Fatal(err)
			}
			return net.ActiveFlows
		}},
		{"Context.RunTask", []float64{0, 1e-12}, func(t *testing.T, eng *sim.Engine, work float64, done func()) func() int {
			c, err := NewNode(eng, "n", DefaultPlanetLabNode()).NewContext("vm", ContextSpec{CPUShares: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunTask("task", work, done); err != nil {
				t.Fatal(err)
			}
			return func() int { return len(c.running) }
		}},
	}
	for _, tc := range cases {
		for _, work := range tc.works {
			eng := sim.NewEngine(1)
			inCall, calls := false, 0
			var armedAt uint64
			var left func() int
			eng.Schedule(0, func() {
				armedAt, _ = eng.Digest()
				inCall = true
				left = tc.arm(t, eng, work, func() {
					calls++
					if inCall {
						t.Errorf("%s(%v): the callback ran inside the call", tc.api, work)
					}
					if n, _ := eng.Digest(); n <= armedAt {
						t.Errorf("%s(%v): the callback ran in the arming event", tc.api, work)
					}
				})
				inCall = false
			})
			eng.Run()
			if calls != 1 {
				t.Errorf("%s(%v): callback ran %d times, want 1", tc.api, work, calls)
			}
			if n := left(); n != 0 {
				t.Errorf("%s(%v): %d still running after the engine drained", tc.api, work, n)
			}
		}
	}
}
