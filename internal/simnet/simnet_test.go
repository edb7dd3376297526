package simnet

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
)

// testNet builds a 3-site network: A at (0,0), B at (30,0), C at (0,40),
// one host per site with 1e6 B/s access links plus a second host at A.
func testNet(t *testing.T, seed int64) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	n := New(eng)
	n.AddSite("A", 0, 0)
	n.AddSite("B", 30, 0)
	n.AddSite("C", 0, 40)
	n.AddHost("a1", "A", 1e6)
	n.AddHost("a2", "A", 1e6)
	n.AddHost("b1", "B", 1e6)
	n.AddHost("c1", "C", 1e6)
	return eng, n
}

func TestLatencyGeometry(t *testing.T) {
	_, n := testNet(t, 1)
	if got, want := n.Latency("A", "B"), 31*time.Millisecond; got != want {
		t.Errorf("Latency(A,B) = %v, want %v", got, want)
	}
	if got, want := n.Latency("B", "C"), 51*time.Millisecond; got != want {
		t.Errorf("Latency(B,C) = %v, want %v (3-4-5 triangle)", got, want)
	}
	if got, want := n.Latency("A", "A"), 500*time.Microsecond; got != want {
		t.Errorf("intra-site latency = %v, want %v", got, want)
	}
	n.SetLatency("A", "B", 7*time.Millisecond)
	if got := n.Latency("B", "A"); got != 7*time.Millisecond {
		t.Errorf("override not symmetric: %v", got)
	}
}

func TestSendDelivers(t *testing.T) {
	eng, n := testNet(t, 1)
	var gotFrom string
	var gotMsg any
	var at time.Duration
	n.Host("b1").Handle("echo", func(from string, req any) (any, error) {
		gotFrom, gotMsg, at = from, req, eng.Now()
		return nil, nil
	})
	n.Send("a1", "b1", "echo", "hello")
	eng.Run()
	if gotFrom != "a1" || gotMsg != "hello" {
		t.Fatalf("delivery = (%q, %v)", gotFrom, gotMsg)
	}
	if at != 31*time.Millisecond {
		t.Errorf("delivered at %v, want 31ms", at)
	}
	if n.Host("a1").MsgsSent != 1 || n.Host("b1").MsgsRecv != 1 {
		t.Errorf("counters sent=%d recv=%d", n.Host("a1").MsgsSent, n.Host("b1").MsgsRecv)
	}
}

// TestSendAllocFree: with tracing off a warm Send allocates nothing: its
// leg comes back from the free list, the span needs no heap cell and the
// host names no second object. The payload is boxed once outside the
// loop, so the caller's conversion is not charged here.
func TestSendAllocFree(t *testing.T) {
	eng, n := testNet(t, 1)
	delivered := 0
	n.Host("b1").Handle("sink", func(string, any) (any, error) { delivered++; return nil, nil })
	var msg any = "payload"
	send := func() {
		n.Send("a1", "b1", "sink", msg)
		eng.Run()
	}
	send() // warm the event heap and the leg free list
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Errorf("Send plus delivery allocates %.1f objects, want 0", got)
	}
	if delivered != 202 {
		t.Errorf("delivered %d of 202 messages", delivered)
	}
}

// TestCallAllocates pins a Call round trip with tracing off: the call
// record and nothing else. Both legs are recycled, the call is its own
// timeout event, and the reply rides in its leg with no cells of its own.
func TestCallAllocates(t *testing.T) {
	for _, tc := range []struct {
		timeout time.Duration
		want    float64
	}{{time.Second, 1}, {0, 1}} {
		eng, n := testNet(t, 1)
		n.Host("b1").Handle("echo", func(_ string, req any) (any, error) { return req, nil })
		var req any = "payload"
		settled := 0
		done := func(any, error) { settled++ }
		call := func() {
			n.Call("a1", "b1", "echo", req, tc.timeout, done)
			eng.Run()
		}
		call() // warm the event heap and the leg free list
		if got := testing.AllocsPerRun(200, call); got > tc.want {
			t.Errorf("timeout %v: a Call round trip allocates %.1f objects, want at most %v", tc.timeout, got, tc.want)
		}
		if settled != 202 {
			t.Errorf("timeout %v: %d of 202 calls settled", tc.timeout, settled)
		}
	}
}

// TestLegPoolPinsNothing: a leg on the free list holds no message, and
// nothing past the list's length holds a leg, both after a drained run and
// after CancelAll abandons legs mid-flight. A pop that shrank the list
// without clearing its slot would keep every abandoned leg, and the
// payload it carries, alive for as long as the network.
func TestLegPoolPinsNothing(t *testing.T) {
	eng, n := testNet(t, 1)
	n.Host("b1").Handle("fwd", func(_ string, req any) (any, error) {
		n.Send("b1", "c1", "sink", req) // reuses the leg that just landed
		return nil, nil
	})
	n.Host("c1").Handle("echo", func(_ string, req any) (any, error) { return req, nil })
	burst := func() {
		for i := 0; i < 16; i++ {
			n.Send("a1", "b1", "fwd", map[string]string{"i": strconv.Itoa(i)})
			n.Call("a1", "c1", "echo", i, time.Second, func(any, error) {})
		}
	}
	burst()
	eng.Run()
	if err := n.checkLegs(true); err != nil {
		t.Fatalf("after a drained run: %v", err)
	}
	// A forward or a reply departs on the leg that just landed, so no more
	// than the burst's 32 legs are ever in flight at once.
	if n.legs.made != 32 {
		t.Fatalf("%d legs made for 16 relayed sends and 16 calls, want 32", n.legs.made)
	}
	burst() // takes every pooled leg
	eng.CancelAll()
	if err := n.checkLegs(false); err != nil {
		t.Fatalf("after CancelAll: %v", err)
	}
	burst()
	eng.Run()
	if err := n.checkLegs(false); err != nil {
		t.Fatalf("after a run past CancelAll: %v", err)
	}
}

// TestTypedRPC: Request and Serve type both ends of a Call. A request of
// the wrong type is refused before the handler runs, a reply of the
// wrong type is an error rather than a panic, and a reply that rides with
// an error reaches the caller as it came.
func TestTypedRPC(t *testing.T) {
	eng, n := testNet(t, 1)
	refused := errors.New("refused")
	ran := 0
	Serve(n.Host("b1"), "double", func(_ string, x int) (int, error) {
		ran++
		if x < 0 {
			return -1, refused
		}
		return 2 * x, nil
	})
	n.Host("b1").Handle("raw", func(string, any) (any, error) { return "not an int", nil })
	for _, tc := range []struct {
		name    string
		svc     string
		req     any
		want    int
		wantErr error
		ran     int
	}{
		{name: "typed", svc: "double", req: 21, want: 42, ran: 1},
		{name: "reply with error", svc: "double", req: -3, want: -1, wantErr: refused, ran: 1},
		{name: "wrong request", svc: "double", req: "21", wantErr: ErrPayload},
		{name: "wrong reply", svc: "raw", req: 21, wantErr: ErrPayload},
		{name: "transport error", svc: "nosuch", req: 21, wantErr: ErrNoHandler},
	} {
		ran = 0
		got, err := -100, error(nil)
		settled := 0
		Request(n, "a1", "b1", tc.svc, tc.req, time.Second, func(r int, e error) { got, err, settled = r, e, settled+1 })
		eng.Run()
		if settled != 1 || got != tc.want || !errors.Is(err, tc.wantErr) || ran != tc.ran {
			t.Errorf("%s: settled %d times with (%d, %v), handler ran %d times; want once with (%d, %v), %d runs",
				tc.name, settled, got, err, ran, tc.want, tc.wantErr, tc.ran)
		}
	}
}

func TestCallRoundTrip(t *testing.T) {
	eng, n := testNet(t, 1)
	n.Host("b1").Handle("double", func(from string, req any) (any, error) {
		return req.(int) * 2, nil
	})
	var resp any
	var err error
	var at time.Duration
	n.Call("a1", "b1", "double", 21, time.Second, func(r any, e error) {
		resp, err, at = r, e, eng.Now()
	})
	eng.Run()
	if err != nil || resp != 42 {
		t.Fatalf("Call = (%v, %v)", resp, err)
	}
	if at != 62*time.Millisecond {
		t.Errorf("RTT completion at %v, want 62ms", at)
	}
}

func TestCallHandlerError(t *testing.T) {
	eng, n := testNet(t, 1)
	boom := errors.New("boom")
	n.Host("b1").Handle("svc", func(string, any) (any, error) { return nil, boom })
	var err error
	n.Call("a1", "b1", "svc", nil, time.Second, func(_ any, e error) { err = e })
	eng.Run()
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestCallNoHandler(t *testing.T) {
	eng, n := testNet(t, 1)
	var err error
	n.Call("a1", "b1", "nosuch", nil, time.Second, func(_ any, e error) { err = e })
	eng.Run()
	if !errors.Is(err, ErrNoHandler) {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
}

func TestCallTimeoutOnLoss(t *testing.T) {
	eng, n := testNet(t, 1)
	n.SetLoss("A", "B", 0.999999) // effectively always lost
	n.Host("b1").Handle("svc", func(string, any) (any, error) { return "ok", nil })
	var err error
	n.Call("a1", "b1", "svc", nil, 500*time.Millisecond, func(_ any, e error) { err = e })
	eng.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestPartitionBlocksTraffic(t *testing.T) {
	eng, n := testNet(t, 1)
	n.Partition("A", "B", true)
	var err error
	n.Call("a1", "b1", "svc", nil, time.Second, func(_ any, e error) { err = e })
	eng.Run()
	if !errors.Is(err, ErrPartitioned) {
		t.Errorf("err = %v, want ErrPartitioned", err)
	}
	// Heal and verify.
	n.Partition("A", "B", false)
	n.Host("b1").Handle("svc", func(string, any) (any, error) { return "ok", nil })
	var resp any
	n.Call("a1", "b1", "svc", nil, time.Second, func(r any, e error) { resp, err = r, e })
	eng.Run()
	if err != nil || resp != "ok" {
		t.Errorf("after heal: (%v, %v)", resp, err)
	}
}

func TestDownHost(t *testing.T) {
	eng, n := testNet(t, 1)
	n.SetDown("b1", true)
	var err error
	n.Call("a1", "b1", "svc", nil, time.Second, func(_ any, e error) { err = e })
	eng.Run()
	if !errors.Is(err, ErrHostDown) {
		t.Errorf("err = %v, want ErrHostDown", err)
	}
}

func TestIntraSiteFastPath(t *testing.T) {
	eng, n := testNet(t, 1)
	n.Host("a2").Handle("svc", func(string, any) (any, error) { return "ok", nil })
	var at time.Duration
	n.Call("a1", "a2", "svc", nil, time.Second, func(any, error) { at = eng.Now() })
	eng.Run()
	if at != time.Millisecond { // 2 * 500us
		t.Errorf("intra-site RTT %v, want 1ms", at)
	}
}

func TestFlowSingleStream(t *testing.T) {
	eng, n := testNet(t, 1)
	var got *Flow
	_, err := n.StartFlow("a1", "b1", 1e6, FlowOpts{}, func(f *Flow) { got = f })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got == nil {
		t.Fatal("flow never completed")
	}
	// 1e6 bytes at 1e6 B/s bottleneck ≈ 1s.
	if d := got.Duration(); d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Errorf("duration %v, want ~1s", d)
	}
	if bps := got.ThroughputBps(); bps < 0.9e6 || bps > 1.1e6 {
		t.Errorf("throughput %v, want ~1e6", bps)
	}
}

func TestFlowsShareAccessLink(t *testing.T) {
	eng, n := testNet(t, 1)
	var d1, d2 time.Duration
	n.StartFlow("a1", "b1", 1e6, FlowOpts{}, func(f *Flow) { d1 = f.Duration() })
	n.StartFlow("a1", "c1", 1e6, FlowOpts{}, func(f *Flow) { d2 = f.Duration() })
	eng.Run()
	// Both cross a1's 1e6 uplink → each gets 5e5 B/s → ~2s.
	for i, d := range []time.Duration{d1, d2} {
		if d < 1900*time.Millisecond || d > 2100*time.Millisecond {
			t.Errorf("flow %d duration %v, want ~2s", i, d)
		}
	}
}

func TestFlowLossLimited(t *testing.T) {
	eng, n := testNet(t, 1)
	n.SetLoss("A", "B", 0.01)
	var f1 *Flow
	n.StartFlow("a1", "b1", 1e6, FlowOpts{}, func(f *Flow) { f1 = f })
	eng.Run()
	if f1 == nil {
		t.Fatal("flow never completed")
	}
	// Mathis: 1460/(0.062*sqrt(2*0.01/3)) ≈ 288 KB/s < 1e6 link rate.
	bps := f1.ThroughputBps()
	if bps > 3.5e5 || bps < 2e5 {
		t.Errorf("loss-limited throughput %v, want ~2.9e5", bps)
	}
}

func TestStripingBeatsSingleStreamOnLossyPath(t *testing.T) {
	// The E8 claim: each stream is independently loss-limited, so k
	// streams ≈ k× throughput until the link saturates.
	eng, n := testNet(t, 1)
	n.SetLoss("A", "B", 0.01)
	var single, striped *Flow
	n.StartFlow("a1", "b1", 1e6, FlowOpts{Streams: 1}, func(f *Flow) { single = f })
	eng.Run()

	eng2 := sim.NewEngine(1)
	n2 := New(eng2)
	n2.AddSite("A", 0, 0)
	n2.AddSite("B", 30, 0)
	n2.AddHost("a1", "A", 1e6)
	n2.AddHost("b1", "B", 1e6)
	n2.SetLoss("A", "B", 0.01)
	n2.StartFlow("a1", "b1", 1e6, FlowOpts{Streams: 3}, func(f *Flow) { striped = f })
	eng2.Run()

	if single == nil || striped == nil {
		t.Fatal("flows incomplete")
	}
	ratio := striped.ThroughputBps() / single.ThroughputBps()
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("striping speedup %.2f, want ~3", ratio)
	}
}

func TestFlowRelayPath(t *testing.T) {
	eng, n := testNet(t, 1)
	var f1 *Flow
	_, err := n.StartFlow("a1", "b1", 1e6, FlowOpts{Paths: [][]string{{"c1"}}}, func(f *Flow) { f1 = f })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if f1 == nil {
		t.Fatal("relayed flow never completed")
	}
	// Relay path still bottlenecked at 1e6 B/s.
	if d := f1.Duration(); d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Errorf("duration %v, want ~1s", d)
	}
}

func TestMultipathAggregatesCapacity(t *testing.T) {
	// Two paths that share no bottleneck with dst capacity 2e6: direct
	// (src.up is shared) — build custom topology: src has 2e6 uplink, dst
	// 2e6 downlink, relay has 1e6. Direct-only would get 2e6; but force
	// loss on direct so it is capped, and multipath recovers via relay.
	eng := sim.NewEngine(1)
	n := New(eng)
	n.AddSite("A", 0, 0)
	n.AddSite("B", 30, 0)
	n.AddSite("R", 15, 10)
	n.AddHost("src", "A", 2e6)
	n.AddHost("dst", "B", 2e6)
	n.AddHost("relay", "R", 1e6)
	n.SetLoss("A", "B", 0.02) // direct path lossy
	// A-R and R-B clean.

	var direct, multi *Flow
	n.StartFlow("src", "dst", 2e6, FlowOpts{Streams: 2}, func(f *Flow) { direct = f })
	eng.Run()

	eng2 := sim.NewEngine(1)
	n2 := New(eng2)
	n2.AddSite("A", 0, 0)
	n2.AddSite("B", 30, 0)
	n2.AddSite("R", 15, 10)
	n2.AddHost("src", "A", 2e6)
	n2.AddHost("dst", "B", 2e6)
	n2.AddHost("relay", "R", 1e6)
	n2.SetLoss("A", "B", 0.02)
	n2.StartFlow("src", "dst", 2e6, FlowOpts{Streams: 2, Paths: [][]string{nil, {"relay"}}, Pooled: true}, func(f *Flow) { multi = f })
	eng2.Run()

	if direct == nil || multi == nil {
		t.Fatal("flows incomplete")
	}
	if multi.ThroughputBps() <= direct.ThroughputBps() {
		t.Errorf("multipath %.0f <= direct %.0f B/s; overlay should win on lossy direct path",
			multi.ThroughputBps(), direct.ThroughputBps())
	}
}

func TestFlowErrors(t *testing.T) {
	_, n := testNet(t, 1)
	if _, err := n.StartFlow("a1", "nosuch", 1, FlowOpts{}, nil); !errors.Is(err, ErrNoSuchHost) {
		t.Errorf("unknown dst: %v", err)
	}
	if _, err := n.StartFlow("a1", "b1", 0, FlowOpts{}, nil); err == nil {
		t.Error("zero bytes accepted")
	}
	n.Partition("A", "B", true)
	if _, err := n.StartFlow("a1", "b1", 1, FlowOpts{}, nil); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partitioned: %v", err)
	}
	n.Partition("A", "B", false)
	n.SetDown("c1", true)
	if _, err := n.StartFlow("a1", "b1", 1, FlowOpts{Paths: [][]string{{"c1"}}}, nil); !errors.Is(err, ErrHostDown) {
		t.Errorf("down relay: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	_, n := testNet(t, 1)
	for name, fn := range map[string]func(){
		"dup site":     func() { n.AddSite("A", 0, 0) },
		"dup host":     func() { n.AddHost("a1", "A", 1) },
		"unknown site": func() { n.AddHost("x", "nosuch", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHostFailureKillsFlows(t *testing.T) {
	eng, n := testNet(t, 1)
	var failed error
	var doneFired bool
	f, err := n.StartFlow("a1", "b1", 1e9, FlowOpts{}, func(*Flow) { doneFired = true })
	if err != nil {
		t.Fatal(err)
	}
	f.OnFail = func(_ *Flow, e error) { failed = e }
	eng.Schedule(time.Second, func() { n.SetDown("b1", true) })
	eng.Run()
	if doneFired {
		t.Error("OnDone fired for killed flow")
	}
	if !errors.Is(failed, ErrHostDown) {
		t.Errorf("OnFail = %v, want ErrHostDown", failed)
	}
	if f.done {
		t.Errorf("flow Done after kill")
	}
}

func TestRelayFailureKillsMultipathFlow(t *testing.T) {
	eng, n := testNet(t, 1)
	var failed error
	f, err := n.StartFlow("a1", "b1", 1e9, FlowOpts{
		Streams: 2, Paths: [][]string{nil, {"c1"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.OnFail = func(_ *Flow, e error) { failed = e }
	eng.Schedule(time.Second, func() { n.SetDown("c1", true) })
	eng.Run()
	if !errors.Is(failed, ErrHostDown) {
		t.Errorf("relay failure: %v", failed)
	}
}

func TestUnrelatedHostFailureLeavesFlowAlone(t *testing.T) {
	eng, n := testNet(t, 1)
	var completed *Flow
	_, err := n.StartFlow("a1", "b1", 1e6, FlowOpts{}, func(f *Flow) { completed = f })
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(100*time.Millisecond, func() { n.SetDown("c1", true) })
	eng.Run()
	if completed == nil {
		t.Error("flow killed by unrelated host failure")
	}
}

func TestFlowRecoveredHostAllowsNewFlows(t *testing.T) {
	eng, n := testNet(t, 1)
	n.SetDown("b1", true)
	if _, err := n.StartFlow("a1", "b1", 1, FlowOpts{}, nil); !errors.Is(err, ErrHostDown) {
		t.Fatalf("down host accepted flow: %v", err)
	}
	n.SetDown("b1", false)
	var done bool
	if _, err := n.StartFlow("a1", "b1", 1e3, FlowOpts{}, func(*Flow) { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Error("flow after recovery incomplete")
	}
}
