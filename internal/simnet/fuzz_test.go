package simnet

import (
	"errors"
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
