package simnet

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzControlPlaneConserves scripts Sends, Calls with and without a
// timeout, cuts, heals, crashes, recoveries and loss changes, Posts to a
// typed endpoint and to an untyped handler, and swaps of the typed
// endpoint for a handler and back, over the three-site test network,
// then drains it and checks the control plane's books:
//   - every Call with a timeout settles exactly once, and none settles
//     twice;
//   - every leg that departed was received or dropped in flight, once:
//     Σ MsgsSent = Σ MsgsRecv + the in-flight drops of every cause, where
//     a cause's in-flight drops are its counter less the departures it
//     refused;
//   - per host, a server sent its own messages plus one reply per request
//     it served, and a2, which serves nothing and sends nothing of its
//     own, refused every request that reached it;
//   - every leg ever made, boxed or typed, is back on its free list,
//     once and empty, including the lists of endpoints swapped out.
//
// A script is a list of (op, arg) byte pairs.
func FuzzControlPlaneConserves(f *testing.F) {
	f.Add([]byte{0, 1, 1, 4, 7, 40, 3, 0, 7, 10, 4, 0, 1, 2, 7, 200})
	f.Add([]byte{1, 0, 7, 12, 3, 0, 7, 30, 4, 0, 1, 3, 7, 45, 5, 1, 7, 100})
	f.Add([]byte{2, 0, 2, 3, 7, 31, 5, 2, 6, 9, 1, 6, 2, 7, 7, 250, 5, 2})
	f.Add([]byte{6, 2, 0, 5, 1, 4, 2, 8, 6, 1, 0, 2, 7, 33, 3, 1, 2, 5})
	f.Add([]byte{8, 1, 10, 1, 8, 4, 9, 2, 7, 10, 10, 1, 8, 7, 3, 0, 8, 2, 7, 200, 10, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			return
		}
		eng, n := testNet(t, 1)
		tr := obs.NewTracer(eng)
		n.SetTracer(tr)
		hosts := []string{"a1", "b1", "c1", "a2"}
		servers := hosts[:3]
		pairs := [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}}
		departed := map[string]uint64{}
		served := map[string]uint64{}
		var refused [numCauses]uint64
		var endpoints []*typed[int, struct{}] // every typed endpoint installed
		serveTyped := func(h string) {
			Serve(n.Host(h), "typed", func(string, int) (struct{}, error) { return struct{}{}, nil })
			endpoints = append(endpoints, n.Host(h).endpoints["typed"].(*typed[int, struct{}]))
		}
		for _, h := range servers {
			n.Host(h).Handle("svc", func(_ string, req any) (any, error) {
				if req == "call" {
					served[h]++
				}
				return "ok", nil
			})
			serveTyped(h)
		}
		// depart mirrors Network.depart: it predicts whether a new message
		// leaves, and counts the refusals by cause.
		depart := func(from, to string) error {
			a, b := n.Host(from), n.Host(to)
			switch {
			case a.Down() || b.Down():
				refused[dropDown]++
				return ErrHostDown
			case n.Partitioned(a.Site, b.Site):
				refused[dropPartition]++
				return ErrPartitioned
			}
			departed[from]++
			return nil
		}
		type rpc struct {
			timed   bool
			refused error
			settles int
			err     error
		}
		var calls []*rpc

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%11, script[i+1]
			from, pair := servers[int(arg)%3], pairs[int(arg)%3]
			switch op {
			case 0:
				to := servers[int(arg)/3%3]
				depart(from, to)
				n.Send(from, to, "svc", "send")
			case 1, 2:
				to := hosts[int(arg)/3%4]
				c := &rpc{timed: op == 1, refused: depart(from, to)}
				calls = append(calls, c)
				timeout := time.Duration(0)
				if c.timed {
					timeout = time.Duration(20+int(arg)%8*20) * time.Millisecond
				}
				n.Call(from, to, "svc", "call", timeout, func(_ any, err error) { c.settles++; c.err = err })
			case 3, 4:
				n.Partition(pair[0], pair[1], op == 3)
			case 5:
				h := n.Host(hosts[int(arg)%4])
				n.SetDown(h.Name, !h.Down())
			case 6:
				n.SetLoss(pair[0], pair[1], float64(int(arg)/3%4)*0.25)
			case 7:
				eng.RunUntil(eng.Now() + time.Duration(arg)*time.Millisecond)
			case 8, 9:
				to, svc := servers[int(arg)/3%3], "typed"
				if op == 9 {
					svc = "svc"
				}
				depart(from, to)
				Post(n, from, to, svc, int(arg))
			case 10:
				if _, ok := n.Host(from).endpoints["typed"].(Handler); ok {
					serveTyped(from)
				} else {
					n.Host(from).Handle("typed", func(string, any) (any, error) { return nil, nil })
				}
			}
		}
		eng.Run()

		for i, c := range calls {
			switch {
			case c.settles > 1:
				t.Fatalf("call %d settled %d times", i, c.settles)
			case c.timed && c.settles != 1:
				t.Fatalf("call %d with a timeout never settled", i)
			case c.refused != nil && !errors.Is(c.err, c.refused):
				t.Fatalf("call %d refused at departure settled with %v, want %v", i, c.err, c.refused)
			}
		}
		if err := n.checkLegs(true); err != nil {
			t.Fatal(err)
		}
		for i, ep := range endpoints {
			if err := ep.legs.check(true); err != nil {
				t.Fatalf("typed endpoint %d: %v", i, err)
			}
		}
		var sent, recv, inFlight uint64
		for _, h := range hosts {
			sent += n.Host(h).MsgsSent
			recv += n.Host(h).MsgsRecv
		}
		for c := range numCauses {
			dropped := tr.Counter("net.drop." + c.String()).Value()
			if dropped < refused[c] {
				t.Fatalf("net.drop.%s = %d, below the %d departures it refused", c, dropped, refused[c])
			}
			inFlight += dropped - refused[c]
		}
		if sent != recv+inFlight {
			t.Fatalf("%d legs departed, %d received + %d dropped in flight", sent, recv, inFlight)
		}
		if got := tr.Counter("net.msgs_sent").Value(); got != sent {
			t.Fatalf("net.msgs_sent = %d, hosts sent %d", got, sent)
		}
		for _, h := range servers {
			if got, want := n.Host(h).MsgsSent, departed[h]+served[h]; got != want {
				t.Fatalf("%s sent %d, want %d of its own + %d replies", h, got, departed[h], served[h])
			}
		}
		if a2 := n.Host("a2"); a2.MsgsSent != a2.MsgsRecv {
			t.Fatalf("a2 received %d requests but sent %d refusals", a2.MsgsRecv, a2.MsgsSent)
		}
	})
}

// FuzzFlowPlaneConserves scripts pooled and striped flows over direct and
// relayed paths through cuts, heals, crashes, recoveries, loss and
// latency churn, and StartFlow calls with NaN, infinite, zero or negative
// bytes or a NaN, infinite or negative weight, or with bytes below the
// fluid tolerance, over the three-site test network at 1% base loss. A
// flow's completion must find it already returned by StartFlow. After
// every step, and after a final drain, it checks the data plane's books:
//   - started = done + failed + active, and a refused flow is not started;
//   - the bytes credited to the hosts (BytesSent) never exceed the bytes
//     of the flows started, and after the drain cover every completed
//     flow's bytes;
//   - no stream is live in two flows or twice in one, every live stream
//     belongs to the flow that lists it, and a finished flow lists none.
//
// A script is a list of (op, arg) byte pairs.
func FuzzFlowPlaneConserves(f *testing.F) {
	// 232 is a1→b1 over three streams on the direct path and through a2
	// and c1, whose unequal speeds make a pooled flow re-split; cutting
	// A–C (3, 2) severs the c1 stream only.
	f.Add([]byte{0, 232, 9, 255, 9, 255, 9, 255})
	f.Add([]byte{0, 232, 0, 230, 9, 50, 3, 2, 9, 255, 4, 2, 0, 105, 9, 255})
	f.Add([]byte{1, 232, 0, 233, 9, 50, 5, 3, 0, 3, 0, 232, 9, 255, 5, 3, 0, 8, 9, 255})
	f.Add([]byte{1, 232, 9, 50, 3, 2, 9, 20, 4, 2, 2, 8, 9, 255})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 0, 8, 9, 255})
	f.Add([]byte{0, 232, 6, 0, 9, 40, 8, 2, 9, 40, 6, 14, 7, 0, 8, 1, 9, 60, 3, 0})
	f.Add([]byte{10, 232, 10, 1, 0, 232, 10, 2, 3, 2, 10, 3, 9, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			return
		}
		eng, n := testNet(t, 1)
		n.BaseLoss = 0.01
		hosts := []string{"a1", "a2", "b1", "c1"}
		pairs := [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}}
		bad := []struct{ bytes, weight float64 }{
			{math.NaN(), 1}, {math.Inf(1), 1}, {math.Inf(-1), 1}, {0, 1}, {-1e6, 1},
			{1e6, math.NaN()}, {1e6, math.Inf(1)}, {1e6, math.Inf(-1)},
			{1e6, -2}, // a weight of 0 or less means the default 1
		}
		var flows []*Flow
		recorded := map[*Flow]bool{}
		startedBytes := 0.0
		check := func(step int) {
			t.Helper()
			if started, ended := n.flowSeq, n.flowsDone+n.flowsFailed; started != ended+uint64(len(n.active)) || started != uint64(len(flows)) {
				t.Fatalf("step %d: %d flows returned, started=%d ≠ done=%d + failed=%d + active=%d",
					step, len(flows), started, n.flowsDone, n.flowsFailed, len(n.active))
			}
			sent := 0.0
			for _, h := range hosts {
				sent += n.Host(h).BytesSent
			}
			if sent > startedBytes*(1+1e-9) {
				t.Fatalf("step %d: hosts credited %v bytes, flows started with %v", step, sent, startedBytes)
			}
			owner := map[*stream]*Flow{}
			for i, fl := range flows {
				_, active := n.active[fl]
				if !active && len(fl.streams) > 0 {
					t.Fatalf("step %d: flow %d ended (done=%v failed=%v) but lists %d streams", step, i, fl.done, fl.failed, len(fl.streams))
				}
				for _, st := range fl.streams {
					if prev := owner[st]; prev != nil {
						t.Fatalf("step %d: a stream of flow %d is live in flow %d too (or twice)", step, i, prev.seq-1)
					}
					owner[st] = fl
					if st.flow != fl {
						t.Fatalf("step %d: flow %d lists a stream of another flow", step, i)
					}
				}
			}
		}
		// start decodes arg as the endpoints (two bits each), the stream
		// count less one (two bits) and the path count (two bits, 0 for
		// the direct path alone): the direct path, then each host that is
		// not an endpoint as a relay.
		start := func(arg byte, bytes, weight float64, pooled bool) {
			from, to := hosts[arg%4], hosts[arg/4%4]
			if from == to {
				to = hosts[(arg+1)%4]
			}
			var others []string
			for _, h := range hosts {
				if h != from && h != to {
					others = append(others, h)
				}
			}
			opts := FlowOpts{Streams: 1 + int(arg/16%4), Pooled: pooled, Weight: weight}
			for k := range int(arg / 64) {
				var relays []string
				if k > 0 {
					relays = []string{others[(k-1)%2]}
				}
				opts.Paths = append(opts.Paths, relays)
			}
			invalid := !(bytes > 0) || math.IsInf(bytes, 0) || math.IsNaN(weight) || math.IsInf(weight, 0)
			fl, err := n.StartFlow(from, to, bytes, opts, func(fl *Flow) {
				if !recorded[fl] {
					t.Fatalf("a flow of %v bytes completed before StartFlow returned it", fl.Bytes)
				}
			})
			switch {
			case err == nil && invalid:
				t.Fatalf("StartFlow(%v bytes, weight %v) accepted", bytes, weight)
			case err == nil:
				flows = append(flows, fl)
				recorded[fl] = true
				startedBytes += bytes
			case invalid, errors.Is(err, ErrHostDown), errors.Is(err, ErrPartitioned):
			default:
				t.Fatalf("StartFlow %s→%s %+v: %v", from, to, opts, err)
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%11, script[i+1]
			pair := pairs[int(arg)%3]
			switch op {
			case 0, 1:
				start(arg, float64(1+i/2%5)*5e5, 1, op == 0)
			case 2:
				b := bad[int(arg)%len(bad)]
				start(arg, b.bytes, b.weight, arg&1 == 0)
			case 3, 4:
				n.Partition(pair[0], pair[1], op == 3)
			case 5:
				h := n.Host(hosts[int(arg)%4])
				n.SetDown(h.Name, !h.Down())
			case 6:
				n.SetLoss(pair[0], pair[1], float64(int(arg)/3%4)*0.05)
			case 7:
				n.ClearLoss(pair[0], pair[1])
			case 8:
				if arg&1 == 0 {
					n.SetLatency(pair[0], pair[1], time.Duration(1+int(arg)/3%8)*25*time.Millisecond)
				} else {
					n.ClearLatency(pair[0], pair[1])
				}
			case 9:
				eng.RunUntil(eng.Now() + time.Duration(arg)*20*time.Millisecond)
			case 10:
				// Below the fluid tolerance of 1e-9 per stream.
				start(arg, float64(1+arg%4)*1e-12, 1, arg&1 == 0)
			}
			check(i / 2)
		}
		eng.Run()
		check(len(script) / 2)
		if len(n.active) != 0 {
			t.Fatalf("%d flows still active after the drain", len(n.active))
		}
		done, sent := 0.0, 0.0
		for _, fl := range flows {
			if fl.done {
				done += fl.Bytes
			}
		}
		for _, h := range hosts {
			sent += n.Host(h).BytesSent
		}
		if sent < done*(1-1e-9) {
			t.Fatalf("hosts credited %v bytes, below the %v of the completed flows", sent, done)
		}
	})
}
