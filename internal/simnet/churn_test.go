package simnet

// Regression tests for the loss-churn and accounting fixes: live streams
// must track loss/latency changes (stale Mathis caps), BytesSent must
// reflect bytes actually moved (not the full size charged up-front), and
// the flow counters must conserve across every exit path.

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// lossyPair builds a two-site network with one host on each side and
// fat access links, so the Mathis cap (not the links) is the binding
// constraint whenever loss is present.
func lossyPair(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := New(eng)
	n.AddSite("A", 0, 0)
	n.AddSite("B", 30, 0)
	n.AddHost("a1", "A", 1e8)
	n.AddHost("b1", "B", 1e8)
	return eng, n
}

// rateOf reads st's allocated rate as the bytes it moves in the next
// virtual second.
func rateOf(eng *sim.Engine, st *sim.FluidConsumer) float64 {
	before := st.Transferred()
	eng.RunUntil(eng.Now() + time.Second)
	return st.Transferred() - before
}

// near reports whether two rates agree within the settle arithmetic's
// float rounding.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*b }

// TestLossBurstRetunesLiveFlow pins the stale-limit fix: a loss burst
// arriving mid-transfer must slow the live stream to the Mathis cap for
// the new loss rate, and clearing the burst must restore the original
// rate — previously in-flight flows kept the cap computed at start.
func TestLossBurstRetunesLiveFlow(t *testing.T) {
	eng, n := lossyPair(t)
	f, err := n.StartFlow("a1", "b1", 1e9, FlowOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	st := &f.streams[0].FluidConsumer
	before := rateOf(eng, st)
	if !near(before, 1e8) {
		t.Fatalf("lossless rate %v, want link capacity 1e8", before)
	}

	n.SetLoss("A", "B", 0.02)
	want := n.pathLimit(f.paths[f.streams[0].path].segs)
	if got := rateOf(eng, st); !near(got, want) || got >= before {
		t.Fatalf("rate under loss burst %v, want Mathis cap %v (< %v)", got, want, before)
	}

	n.ClearLoss("A", "B")
	if got := rateOf(eng, st); !near(got, before) {
		t.Fatalf("rate after clearing burst %v, want restored %v", got, before)
	}
}

// TestLatencyChurnRetunesLiveFlow: with loss present, a latency change
// moves the Mathis cap (BW ∝ 1/RTT) of a live stream in both directions.
func TestLatencyChurnRetunesLiveFlow(t *testing.T) {
	eng, n := lossyPair(t)
	n.BaseLoss = 0.01
	f, err := n.StartFlow("a1", "b1", 1e9, FlowOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	st := &f.streams[0].FluidConsumer
	before := rateOf(eng, st)

	n.SetLatency("A", "B", 200*time.Millisecond)
	if got := rateOf(eng, st); got >= before {
		t.Fatalf("rate after RTT increase %v, want < %v", got, before)
	}
	n.ClearLatency("A", "B")
	if got := rateOf(eng, st); !near(got, before) {
		t.Fatalf("rate after clearing latency override %v, want restored %v", got, before)
	}
}

// TestAbortSettlesBytesSent pins the accounting fix: BytesSent must
// reflect the bytes a flow actually moved when a partition kills it
// mid-flight, not the full size charged at start.
func TestAbortSettlesBytesSent(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	n.AddSite("A", 0, 0)
	n.AddSite("B", 30, 0)
	n.AddHost("a1", "A", 1e5)
	n.AddHost("b1", "B", 1e5)

	f, err := n.StartFlow("a1", "b1", 1e6, FlowOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Host("a1").BytesSent; got != 0 {
		t.Fatalf("BytesSent charged %v at start, want 0 until bytes move", got)
	}
	eng.RunUntil(2 * time.Second) // 1e5 B/s for 2s → 2e5 of 1e6 moved
	n.Partition("A", "B", true)
	got := n.Host("a1").BytesSent
	if math.Abs(got-2e5) > 1 || !f.failed {
		t.Fatalf("BytesSent after mid-flight cut = %v, want ~2e5", got)
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("cut flow still active")
	}

	// A flow that runs to completion credits exactly its size on top.
	n.Partition("A", "B", false)
	if _, err := n.StartFlow("a1", "b1", 1e6, FlowOpts{}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if total := n.Host("a1").BytesSent; math.Abs(total-(2e5+1e6)) > 1 {
		t.Fatalf("BytesSent after completed flow = %v, want ~%v", total, 2e5+1e6)
	}
}

// TestFlowCounterConservation drives seeded churn through every flow
// exit path — completion, host-down kill, partition kill — and checks
// the conservation identity the counters must maintain:
// started = done + failed + active.
func TestFlowCounterConservation(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		eng := sim.NewEngine(seed)
		n := New(eng)
		n.SetTracer(obs.NewTracer(eng))
		n.BaseLoss = 0.01
		n.AddSite("A", 0, 0)
		n.AddSite("B", 30, 0)
		n.AddSite("C", 0, 40)
		for _, h := range []struct{ name, site string }{
			{"a1", "A"}, {"a2", "A"}, {"b1", "B"}, {"b2", "B"}, {"c1", "C"},
		} {
			n.AddHost(h.name, h.site, 1e6)
		}
		rng := eng.ForkRand()
		eng.NewTicker(3*time.Second, func() {
			switch rng.Intn(6) {
			case 0, 1, 2:
				from := []string{"a1", "a2"}[rng.Intn(2)]
				to := []string{"b1", "b2", "c1"}[rng.Intn(3)]
				_, err := n.StartFlow(from, to, 1e5+float64(rng.Intn(int(3e6))), FlowOpts{
					Streams: 1 + rng.Intn(3),
					Pooled:  rng.Intn(2) == 0,
				}, nil)
				if err != nil && !errors.Is(err, ErrHostDown) && !errors.Is(err, ErrPartitioned) {
					t.Fatalf("seed %d: start %s→%s: %v", seed, from, to, err)
				}
			case 3:
				n.Partition("A", "C", rng.Intn(2) == 0)
			case 4:
				n.Partition("A", "B", rng.Intn(2) == 0)
			default:
				host := []string{"b1", "c1"}[rng.Intn(2)]
				n.SetDown(host, rng.Intn(2) == 0)
			}
		})
		eng.RunUntil(5 * time.Minute)

		count := func(name string) uint64 { return n.Tracer().Counter("net.flows." + name).Value() }
		started, done, failed := count("started"), count("done"), count("failed")
		if started != done+failed+uint64(n.ActiveFlows()) {
			t.Fatalf("seed %d: started=%d ≠ done=%d + failed=%d + active=%d",
				seed, started, done, failed, n.ActiveFlows())
		}
		if started == 0 {
			t.Fatalf("seed %d: no flows started, test is vacuous", seed)
		}
	}
}
