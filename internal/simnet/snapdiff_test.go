package simnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/snaptest"
)

// snapDriver is the differential scenario's workload state, hoisted into
// a SnapRoot-registered struct per the snapshot-safety contract: the
// event log, the request counter, and the workload rng must all rewind
// with the network on Fork, so none of them may live in ticker captures.
type snapDriver struct {
	net *Network
	rng *rand.Rand
	log []string
	seq int
}

func (d *snapDriver) emit(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf("%v ", d.net.Engine().Now())+fmt.Sprintf(format, args...))
}

// tick drives one round of control- and data-plane churn: RPCs against
// two targets, periodic partitions and host outages so calls time out
// and flows die mid-transfer, and bulk flows with rng-drawn sizes.
func (d *snapDriver) tick() {
	d.seq++
	id := d.seq
	switch id % 7 {
	case 2:
		d.net.Partition("A", "B", true)
		d.emit("cut A-B")
	case 4:
		d.net.Partition("A", "B", false)
		d.emit("heal A-B")
	case 6:
		down := !d.net.Host("c1").Down()
		d.net.SetDown("c1", down)
		d.emit("c1 down=%v", down)
	}
	to := "b1"
	if id%3 == 0 {
		to = "c1"
	}
	d.net.Call("a1", to, "echo", id, 20*time.Second, func(resp any, err error) {
		d.emit("call %d->%s resp=%v err=%v", id, to, resp, err)
	})
	if id%4 == 0 {
		size := 200_000 + float64(d.rng.Intn(200_000))
		fl, err := d.net.StartFlow("a1", "b1", size, FlowOpts{Streams: 1 + id%2}, func(*Flow) {
			d.emit("flow %d done bytes=%.0f", id, size)
		})
		if err != nil {
			d.emit("flow %d refused err=%v", id, err)
			return
		}
		fl.OnFail = func(_ *Flow, e error) { d.emit("flow %d fail err=%v", id, e) }
	}
}

func buildSimnetDiff(seed int64) (*sim.Engine, func() []byte) {
	eng := sim.NewEngine(seed)
	n := New(eng)
	n.BaseLoss = 0.05
	n.AddSite("A", 0, 0)
	n.AddSite("B", 30, 0)
	n.AddSite("C", 0, 40)
	n.AddHost("a1", "A", 1e6)
	n.AddHost("b1", "B", 1e6)
	n.AddHost("c1", "C", 1e6)
	echo := func(from string, req any) (any, error) { return req, nil }
	n.Host("b1").Handle("echo", echo)
	n.Host("c1").Handle("echo", echo)
	d := &snapDriver{net: n, rng: eng.ForkRand()}
	eng.SnapRoot("simnet.snapdiff", d)
	eng.NewTicker(30*time.Second, d.tick)
	render := func() []byte {
		var b bytes.Buffer
		for _, ln := range d.log {
			fmt.Fprintln(&b, ln)
		}
		a := n.Host("a1")
		fmt.Fprintf(&b, "a1 sent=%d recv=%d bytes=%.0f\n", a.MsgsSent, a.MsgsRecv, a.BytesSent)
		return b.Bytes()
	}
	return eng, render
}

// TestForkVsColdSimnet is simnet's adoption of the snaptest scenario
// hook: with calls in flight, flows mid-transfer, partitions toggling,
// and loss draws pending, a forked run must be byte-identical to a cold
// one — proving every piece of network state (calls in flight, flow set,
// fluid system, rng) is in the snapshot walker's reach.
func TestForkVsColdSimnet(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 4
	}
	snaptest.Scenario{
		Name:      "simnet.churn",
		Build:     buildSimnetDiff,
		WarmUntil: 10 * time.Minute,
		Horizon:   40 * time.Minute,
	}.Run(t, snaptest.Seeds(1, n))
}

// relayHop is a relayed message's payload. Each receiver bumps it and
// forwards the same pointer, so while a hop is in flight the leg carrying
// it is the only thing that reaches it.
type relayHop struct{ id, n int }

// relayDriver starts a hop every tick; its log and counter rewind with
// the network on Fork. A typed driver Posts the hop by value to Serve
// endpoints, so a hop in flight lives only in its typed leg's body.
type relayDriver struct {
	net   *Network
	typed bool
	log   []string
	seq   int
}

func (d *relayDriver) tick() {
	d.seq++
	if d.typed {
		Post(d.net, "a1", "b1", "relay", relayHop{id: d.seq})
		return
	}
	d.net.Send("a1", "b1", "relay", &relayHop{id: d.seq})
}

// relayNet relays hops a1 → b1 → c1 → a1 … over lossy paths, six
// landings each, so every landing hands its leg straight to the next
// send. The render ends with the free lists' books, which a Fork must
// rewind too.
func relayNet(seed int64, typedHops bool) (*sim.Engine, *Network, func() []byte) {
	eng := sim.NewEngine(seed)
	n := New(eng)
	n.BaseLoss = 0.1
	n.AddSite("A", 0, 0)
	n.AddSite("B", 30, 0)
	n.AddSite("C", 0, 40)
	n.AddHost("a1", "A", 1e6)
	n.AddHost("b1", "B", 1e6)
	n.AddHost("c1", "C", 1e6)
	d := &relayDriver{net: n, typed: typedHops}
	next := map[string]string{"a1": "b1", "b1": "c1", "c1": "a1"}
	for self, to := range next {
		if typedHops {
			Serve(n.Host(self), "relay", func(from string, h relayHop) (struct{}, error) {
				h.n++
				d.log = append(d.log, fmt.Sprintf("%v %s<-%s hop %d.%d", eng.Now(), self, from, h.id, h.n))
				if h.n < 6 {
					Post(n, self, to, "relay", h)
				}
				return struct{}{}, nil
			})
			continue
		}
		n.Host(self).Handle("relay", func(from string, req any) (any, error) {
			h := req.(*relayHop)
			h.n++
			d.log = append(d.log, fmt.Sprintf("%v %s<-%s hop %d.%d", eng.Now(), self, from, h.id, h.n))
			if h.n < 6 {
				n.Send(self, to, "relay", h)
			}
			return nil, nil
		})
	}
	eng.SnapRoot("simnet.relaydiff", d)
	eng.NewTicker(20*time.Millisecond, d.tick)
	render := func() []byte {
		var b bytes.Buffer
		for _, ln := range d.log {
			fmt.Fprintln(&b, ln)
		}
		made, free := n.relayLegs()
		fmt.Fprintf(&b, "legs made=%d free=%d\n", made, free)
		return b.Bytes()
	}
	return eng, n, render
}

// relayLegs totals the legs the relay's pools made, and those now free:
// the boxed pool's, plus each relay endpoint's.
func (n *Network) relayLegs() (made, free int) {
	made, free = n.legs.made, len(n.legs.free)
	for _, h := range []string{"a1", "b1", "c1"} {
		if ep, ok := n.Host(h).endpoints["relay"].(*typed[relayHop, struct{}]); ok {
			made, free = made+ep.legs.made, free+len(ep.legs.free)
		}
	}
	return made, free
}

// TestForkVsColdRelayedLegs: a snapshot taken with legs in flight, whose
// legs then land and are reused for new sends before the Fork, replays
// byte-identically to a cold run, for boxed hops and for typed ones. The
// in-flight payloads are reachable only through their legs, so this
// holds only because the engine's node reaches each leg through its
// Firer and the walker follows it.
func TestForkVsColdRelayedLegs(t *testing.T) {
	const warm, horizon = 2*time.Second + 7*time.Millisecond, 4 * time.Second
	for _, typedHops := range []bool{false, true} {
		eng, n, _ := relayNet(1, typedHops)
		eng.RunUntil(warm)
		made, free := n.relayLegs()
		inFlight, sent := made-free, n.Host("a1").MsgsSent
		eng.RunUntil(horizon)
		made, _ = n.relayLegs()
		if sent = n.Host("a1").MsgsSent - sent; inFlight == 0 || sent <= uint64(made) {
			t.Fatalf("typed %v: %d legs in flight at the snapshot, %d sent by a1 after it over %d legs: want some in flight, then reuse", typedHops, inFlight, sent, made)
		}
		snaptest.Scenario{
			Name: fmt.Sprintf("simnet.relay.typed=%v", typedHops),
			Build: func(seed int64) (*sim.Engine, func() []byte) {
				eng, _, render := relayNet(seed, typedHops)
				return eng, render
			},
			WarmUntil: warm,
			Horizon:   horizon,
		}.Run(t, snaptest.Seeds(1, 20))
	}
}
