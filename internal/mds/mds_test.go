package mds

import (
	"fmt"
	"maps"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

type fixture struct {
	eng *sim.Engine
	net *simnet.Network
}

func newFixture() *fixture {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 30, 0)
	net.AddHost("idx", "A", 1e6)
	net.AddHost("n1", "B", 1e6)
	net.AddHost("n2", "B", 1e6)
	net.AddHost("client", "A", 1e6)
	return &fixture{eng: eng, net: net}
}

// staticFill is a provider that reports the same attributes every push.
func staticFill(attrs map[string]string) func(map[string]string) {
	return func(into map[string]string) { maps.Copy(into, attrs) }
}

func TestRegistrationAndQuery(t *testing.T) {
	f := newFixture()
	idx := NewGIIS(f.eng, f.net, "idx")
	g1 := NewGRIS(f.eng, f.net, "n1")
	g1.AddProviderInto("n1/compute", staticFill(map[string]string{"os": "linux", "cpus": "4"}))
	g2 := NewGRIS(f.eng, f.net, "n2")
	g2.AddProviderInto("n2/compute", staticFill(map[string]string{"os": "aix", "cpus": "16"}))
	g1.StartPush("idx", time.Minute)
	g2.StartPush("idx", time.Minute)
	f.eng.RunUntil(time.Second)
	if idx.Live() != 2 {
		t.Fatalf("Live = %d, want 2", idx.Live())
	}
	var reply QueryReply
	QueryIndex(f.net, "client", "idx", Query{Filters: []Filter{{"os", FEq, "linux"}}}, time.Minute,
		func(r QueryReply, err error) { reply = r })
	f.eng.RunUntil(2 * time.Second)
	if len(reply.Records) != 1 || reply.Records[0].Name != "n1/compute" {
		t.Fatalf("reply = %+v", reply)
	}
	g1.Stop()
	g2.Stop()
}

func TestTTLExpiry(t *testing.T) {
	f := newFixture()
	idx := NewGIIS(f.eng, f.net, "idx")
	g := NewGRIS(f.eng, f.net, "n1")
	g.AddProviderInto("n1/compute", staticFill(map[string]string{"os": "linux"}))
	g.StartPush("idx", time.Minute)
	f.eng.RunUntil(time.Second)
	if idx.Live() != 1 {
		t.Fatal("not registered")
	}
	// Node dies: pushes stop, record must expire after TTL (2×interval).
	g.Stop()
	f.net.SetDown("n1", true)
	f.eng.RunUntil(4 * time.Minute)
	if idx.Live() != 0 {
		t.Errorf("dead node still live after TTL")
	}
}

func TestStalenessReported(t *testing.T) {
	f := newFixture()
	idx := NewGIIS(f.eng, f.net, "idx")
	g := NewGRIS(f.eng, f.net, "n1")
	g.AddProviderInto("r", staticFill(map[string]string{"os": "linux"}))
	g.StartPush("idx", 10*time.Minute)
	f.eng.RunUntil(5 * time.Minute)
	reply := idx.Eval(Query{})
	// Snapshot taken at ~0 (plus push latency), queried at 5min.
	if reply.MaxStale < 4*time.Minute || reply.MaxStale > 6*time.Minute {
		t.Errorf("MaxStale = %v, want ~5m", reply.MaxStale)
	}
	g.Stop()
}

func TestDynamicProviderRefreshes(t *testing.T) {
	f := newFixture()
	idx := NewGIIS(f.eng, f.net, "idx")
	load := 0
	g := NewGRIS(f.eng, f.net, "n1")
	g.AddProviderInto("r", func(attrs map[string]string) {
		attrs["load"] = fmt.Sprint(load)
	})
	g.StartPush("idx", time.Minute)
	f.eng.RunUntil(time.Second)
	load = 7
	f.eng.RunUntil(90 * time.Second) // second push at 60s carries load=7
	reply := idx.Eval(Query{Filters: []Filter{{"load", FEq, "7"}}})
	if len(reply.Records) != 1 {
		t.Errorf("refreshed attr not visible: %+v", reply)
	}
	g.Stop()
}

func TestQueryLimit(t *testing.T) {
	f := newFixture()
	idx := NewGIIS(f.eng, f.net, "idx")
	g := NewGRIS(f.eng, f.net, "n1")
	for i := 0; i < 10; i++ {
		g.AddProviderInto(fmt.Sprintf("r%02d", i), staticFill(map[string]string{"os": "linux"}))
	}
	g.StartPush("idx", time.Minute)
	f.eng.RunUntil(time.Second)
	reply := idx.Eval(Query{Limit: 3})
	if len(reply.Records) != 3 {
		t.Errorf("Limit ignored: %d records", len(reply.Records))
	}
	g.Stop()
}

func TestDeterministicResultOrder(t *testing.T) {
	f := newFixture()
	idx := NewGIIS(f.eng, f.net, "idx")
	g := NewGRIS(f.eng, f.net, "n1")
	for _, name := range []string{"zeta", "alpha", "mid"} {
		g.AddProviderInto(name, staticFill(map[string]string{"x": "1"}))
	}
	g.StartPush("idx", time.Minute)
	f.eng.RunUntil(time.Second)
	reply := idx.Eval(Query{})
	want := []string{"alpha", "mid", "zeta"}
	for i, rec := range reply.Records {
		if rec.Name != want[i] {
			t.Fatalf("order = %v", reply.Records)
		}
	}
	g.Stop()
}

func TestPushCountScalesWithResources(t *testing.T) {
	// E3's core observation: registration traffic is linear in resources.
	f := newFixture()
	NewGIIS(f.eng, f.net, "idx")
	g := NewGRIS(f.eng, f.net, "n1")
	for i := 0; i < 5; i++ {
		g.AddProviderInto(fmt.Sprintf("r%d", i), staticFill(map[string]string{"x": "1"}))
	}
	g.StartPush("idx", time.Minute)
	f.eng.RunUntil(5*time.Minute + time.Second)
	// Initial push + 5 ticks = 6 rounds × 5 resources.
	if g.PushN != 30 {
		t.Errorf("PushN = %d, want 30", g.PushN)
	}
	g.Stop()
}

// pushRig is E14's registry plane at one site: a GRIS with 64 node
// sensors (three constant attributes, two small ints that change with the
// minute, formatted by strconv.Itoa) pushing to a RegionIndex over simnet.
func pushRig(traced bool) (*fixture, *RegionIndex) {
	f := newFixture()
	if traced {
		f.net.SetTracer(obs.NewTracer(f.eng))
	}
	rg := NewRegionIndex(f.eng, f.net, "idx", "R", nil)
	g := NewGRIS(f.eng, f.net, "n1")
	for n := 0; n < 64; n++ {
		node := n
		g.AddProviderInto(fmt.Sprintf("n1/n%02d", n), func(attrs map[string]string) {
			attrs["region"] = "R"
			attrs["site"] = "n1"
			attrs["os"] = "linux"
			attrs["cpus"] = strconv.Itoa(2 << uint(node%4))
			attrs["load"] = strconv.Itoa((node*7 + int(f.eng.Now()/time.Minute)) % 32)
		})
	}
	g.StartPush("idx", time.Minute)
	return f, rg
}

// TestPushAllocsPerRecord pins what a registration costs through the
// network once warm: nothing. The GRIS Posts the Registration by value to
// the index's Serve endpoint, whose recycled leg carries it unboxed, and
// provider fill, the GRIS walk and the index's in-place refresh add
// nothing either.
func TestPushAllocsPerRecord(t *testing.T) {
	f, rg := pushRig(false)
	f.eng.RunUntil(3*time.Minute + time.Second)
	before := rg.RegisterN
	const rounds = 10
	perRound := testing.AllocsPerRun(rounds, func() { f.eng.RunUntil(f.eng.Now() + time.Minute) })
	// AllocsPerRun makes one warm-up call before the counted ones.
	if got := rg.RegisterN - before; got != 64*(rounds+1) {
		t.Fatalf("%d registrations in %d pushes, want 64 each", got, rounds+1)
	}
	if perRecord := perRound / 64; perRecord > 0 {
		t.Errorf("a pushed registration allocates %.2f objects, want 0", perRecord)
	}
}

// TestTracedPushSpan: with tracing on, a pushed registration is still one
// closed net.send span carrying from, to and svc, in that order.
func TestTracedPushSpan(t *testing.T) {
	f, rg := pushRig(true)
	f.eng.RunUntil(time.Second)
	var spans []*obs.Span
	for _, s := range f.net.Tracer().Spans() {
		if s.Name == "net.send" {
			spans = append(spans, s)
		}
	}
	if len(spans) != 64 || rg.RegisterN != 64 {
		t.Fatalf("%d net.send spans for %d registrations, want 64 of each", len(spans), rg.RegisterN)
	}
	want := []obs.Attr{obs.String("from", "n1"), obs.String("to", "idx"), obs.String("svc", SvcRegister)}
	if s := spans[0]; !reflect.DeepEqual(s.Attrs, want) || s.Open || s.End-s.Begin != f.net.Latency("B", "A") {
		t.Errorf("first net.send span = %+v, want closed after one latency with attrs %+v", *s, want)
	}
}
