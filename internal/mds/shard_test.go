package mds

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// shardRig drives the same registration stream into the flat oracle
// (flat_test.go) and a region/root sharded plane, so queries against both can be compared
// byte for byte.
type shardRig struct {
	eng     *sim.Engine
	net     *simnet.Network
	flat    *flatGIIS
	root    *RootIndex
	regions []*RegionIndex
}

func newShardRig(t *testing.T, nRegions int) *shardRig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("flat", "HQ", 1e6)
	net.AddHost("rootidx", "HQ", 1e6)
	rig := &shardRig{
		eng:  eng,
		net:  net,
		flat: newFlatGIIS(eng, net, "flat"),
		root: NewRootIndex(eng, net, "rootidx"),
	}
	in := NewInterner()
	for i := 0; i < nRegions; i++ {
		host := fmt.Sprintf("region%d", i)
		net.AddHost(host, "HQ", 1e6)
		rg := NewRegionIndex(eng, net, host, fmt.Sprintf("R%d", i), in)
		rig.regions = append(rig.regions, rg)
		rig.root.AttachRegion(rg)
	}
	return rig
}

// feed registers one record into both planes (region chosen by site
// index), as if the site's GRIS pushed to each.
func (rig *shardRig) feed(t *testing.T, site int, rec Record, ttl time.Duration) {
	t.Helper()
	reg := Registration{Rec: rec, TTL: ttl}
	if _, err := rig.flat.handleRegister(rec.Source, reg); err != nil {
		t.Fatal(err)
	}
	if err := rig.regions[site%len(rig.regions)].RegisterRecord(reg); err != nil {
		t.Fatal(err)
	}
}

// renderReply serializes a reply canonically: records in order with
// sorted attrs, then the staleness bound.
func renderReply(r QueryReply) []byte {
	var b bytes.Buffer
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "%s src=%s stamp=%v", rec.Name, rec.Source, rec.Stamp)
		keys := make([]string, 0, len(rec.Attrs))
		for k := range rec.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, rec.Attrs[k])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "maxstale=%v\n", r.MaxStale)
	return b.Bytes()
}

// refEval is the collect-and-sort Eval that RegionIndex shipped before
// the order index: gather every live name, sort, go back through byName,
// match filter by filter. It reads none of the order state, which makes
// it the reference the walked Eval is held to.
func refEval(r *RegionIndex, q Query) QueryReply {
	now := r.eng.Now()
	var names []string
	for i := range r.slots {
		if r.slots[i].name != "" && r.slots[i].expires > now {
			names = append(names, r.slots[i].name)
		}
	}
	sort.Strings(names)
	var reply QueryReply
	for _, name := range names {
		s := &r.slots[r.byName[name]]
		attrs := make(map[string]string, len(s.keys))
		for j, id := range s.keys {
			attrs[r.in.Key(id)] = s.vals[j]
		}
		match := true
		for _, f := range q.Filters {
			match = match && f.Match(attrs)
		}
		if !match {
			continue
		}
		reply.Records = append(reply.Records, Record{Name: s.name, Attrs: attrs, Stamp: s.stamp, Source: s.source})
		if age := now - s.stamp; age > reply.MaxStale {
			reply.MaxStale = age
		}
		if q.Limit > 0 && len(reply.Records) >= q.Limit {
			break
		}
	}
	return reply
}

// refRegister is RegisterRecord as it stood before the in-place refresh:
// every registration, refresh or not, collects, sorts and interns its keys
// again, rewrites every pair and absorbs every value. A twin region driven
// through it is the oracle that the refresh changes cost and never state.
// It writes the pairs behind the region's back, so it drops the slot's
// reply map and the twin's next Eval rebuilds it from the pairs — which
// makes the twin the oracle for the served map's upkeep as well.
func refRegister(r *RegionIndex, reg Registration) error {
	if reg.Rec.Name == "" {
		return fmt.Errorf("mds: registration without a name from %q", reg.Rec.Source)
	}
	r.RegisterN++
	idx, ok := r.byName[reg.Rec.Name]
	if !ok {
		idx = r.allocSlot()
		r.byName[reg.Rec.Name] = idx
		if n := len(r.order); n > 0 && r.slots[r.order[n-1]].name > reg.Rec.Name {
			r.unsorted = true
		}
		r.order = append(r.order, idx)
	}
	s := &r.slots[idx]
	s.name = reg.Rec.Name
	s.source = reg.Rec.Source
	s.stamp = reg.Rec.Stamp
	s.expires = r.eng.Now() + reg.TTL
	r.scratch = r.scratch[:0]
	for k := range reg.Rec.Attrs {
		r.scratch = append(r.scratch, k)
	}
	sort.Strings(r.scratch)
	s.keys = s.keys[:0]
	s.vals = s.vals[:0]
	s.attrs = nil
	for _, k := range r.scratch {
		v := reg.Rec.Attrs[k]
		id := r.in.ID(k)
		s.keys = append(s.keys, id)
		s.vals = append(s.vals, v)
		r.absorb(id, v)
	}
	return nil
}

// twinDiff says where a region and its refRegister twin differ, "" when
// they do not: slot contents, free list, registration count, summary and
// the version that decides whether the summary is pushed.
func twinDiff(got, want *RegionIndex) string {
	sameSlot := func(a, b regSlot) bool {
		return a.name == b.name && a.source == b.source && a.stamp == b.stamp && a.expires == b.expires &&
			slices.Equal(a.keys, b.keys) && slices.Equal(a.vals, b.vals)
	}
	if !slices.EqualFunc(got.slots, want.slots, sameSlot) || !slices.Equal(got.free, want.free) {
		return fmt.Sprintf("slots %+v free %v, reference %+v free %v", got.slots, got.free, want.slots, want.free)
	}
	if got.RegisterN != want.RegisterN || got.sumVersion != want.sumVersion {
		return fmt.Sprintf("RegisterN %d sumVersion %d, reference %d and %d", got.RegisterN, got.sumVersion, want.RegisterN, want.sumVersion)
	}
	gs, ws := got.Summary(time.Minute), want.Summary(time.Minute)
	ws.Region, ws.Host = gs.Region, gs.Host
	if !reflect.DeepEqual(gs, ws) {
		return fmt.Sprintf("summary %+v, reference %+v", gs, ws)
	}
	return ""
}

// TestShardedMatchesFlat is the differential gate: over a seeded grid
// of sites with churning attributes, partial refresh loss (expiring
// records), and a spread of query shapes, the sharded plane must return
// byte-identical replies to the flat registry.
func TestShardedMatchesFlat(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rig := newShardRig(t, 4)
		rng := rand.New(rand.NewSource(seed))
		const nSites, perSite = 24, 3
		oses := []string{"linux", "aix", "solaris"}

		refresh := func(round int) {
			now := rig.eng.Now()
			for s := 0; s < nSites; s++ {
				// A third of sites go quiet after round 0 — their records
				// must expire identically in both planes.
				if round > 0 && s%3 == 0 {
					continue
				}
				for r := 0; r < perSite; r++ {
					rec := Record{
						Name:   fmt.Sprintf("site%02d/res%d", s, r),
						Source: fmt.Sprintf("site%02d", s),
						Stamp:  now,
						Attrs: map[string]string{
							"os":   oses[(s+r)%len(oses)],
							"cpus": fmt.Sprint(1 << uint(rng.Intn(5))),
							"load": fmt.Sprintf("%.2f", rng.Float64()*8),
							"site": fmt.Sprintf("site%02d", s),
						},
					}
					if r == 2 {
						rec.Attrs["gpu"] = "1" // sparse attribute
					}
					// Unsigned infinities parse as numbers: a region whose
					// only burst value is one must not be pruned for it.
					if r == 0 && (s == 5 || s == 7) {
						rec.Attrs["burst"] = map[int]string{5: "inf", 7: "Infinity"}[s]
					}
					// NaN parses too, and is the first load region 1 ever
					// sees: it must not freeze that region's min/max.
					if s == 1 && r == 0 {
						rec.Attrs["load"] = "nan"
					}
					rig.feed(t, s, rec, 10*time.Minute)
				}
			}
		}

		refresh(0)
		rig.eng.RunUntil(4 * time.Minute)
		refresh(1)
		// Let the quiet third expire: round-0 records lapse at 10m.
		rig.eng.RunUntil(11 * time.Minute)
		for _, rg := range rig.regions {
			rg.StartSummaryPush("rootidx", time.Minute)
		}
		rig.eng.RunUntil(12 * time.Minute)

		queries := []Query{
			{},
			{Limit: 7},
			{Filters: []Filter{{"os", FEq, "linux"}}},
			{Filters: []Filter{{"os", FEq, "plan9"}}},
			{Filters: []Filter{{"os", FNe, "linux"}}, Limit: 5},
			{Filters: []Filter{{"cpus", FGe, "8"}}},
			{Filters: []Filter{{"load", FLt, "2.0"}}},
			{Filters: []Filter{{"gpu", FEq, "1"}}},
			{Filters: []Filter{{"nope", FEq, "x"}}},
			{Filters: []Filter{{"os", FEq, "aix"}, {"cpus", FLe, "4"}}, Limit: 3},
			{Filters: []Filter{{"site", FEq, "site05"}}},
			{Filters: []Filter{{"os", FGt, "3"}}}, // non-numeric attr side
			{Filters: []Filter{{"burst", FGt, "5"}}},
			{Filters: []Filter{{"load", FLt, "INF"}}, Limit: 4},
			{Filters: []Filter{{"load", FGt, "5"}}},
			{Filters: []Filter{{"load", FLe, "1.5"}}},
		}
		for qi, q := range queries {
			flat := renderReply(rig.flat.Eval(q))
			sharded, err := rig.root.QueryShards(q)
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, qi, err)
			}
			if got := renderReply(sharded); !bytes.Equal(flat, got) {
				t.Errorf("seed %d query %d diverged:\n--- flat ---\n%s--- sharded ---\n%s", seed, qi, flat, got)
			}
		}
	}
}

// TestNaNStaysOutOfSummaryRange: "nan" parses, but a NaN bound would make
// every later min/max comparison false and prune the region for every
// ordering filter. Checked on both paths that build the range: absorb in
// arrival order and rebuildSummary in slot order.
func TestNaNStaysOutOfSummaryRange(t *testing.T) {
	rig := newShardRig(t, 1)
	rg := rig.regions[0]
	feed := func(name, load string, ttl time.Duration) {
		rig.feed(t, 0, Record{Name: name, Source: "s", Stamp: rig.eng.Now(),
			Attrs: map[string]string{"load": load}}, ttl)
	}
	check := func(when string, min, max float64) {
		t.Helper()
		ks := rg.Summary(time.Minute).Keys[0]
		if !ks.HasNum || ks.Min != min || ks.Max != max {
			t.Fatalf("%s: load summary HasNum=%v [%v, %v], want [%v, %v]", when, ks.HasNum, ks.Min, ks.Max, min, max)
		}
	}
	feed("a", "nan", time.Hour)
	if ks := rg.Summary(time.Minute).Keys[0]; ks.HasNum {
		t.Fatalf("a region holding only nan publishes HasNum [%v, %v]", ks.Min, ks.Max)
	}
	feed("b", "12", time.Hour)
	feed("c", "3", time.Minute)
	check("absorb", 3, 12)

	rig.eng.RunUntil(2 * time.Minute)
	if n := rg.Sweep(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	check("rebuild", 12, 12)

	rg.StartSummaryPush("rootidx", time.Minute)
	rig.eng.RunUntil(2*time.Minute + time.Second)
	reply, err := rig.root.QueryShards(Query{Filters: []Filter{{"load", FGt, "5"}}})
	if err != nil || len(reply.Records) != 1 || reply.Records[0].Name != "b" || rig.root.PrunedN != 0 {
		t.Fatalf("load > 5: %+v err=%v pruned=%d, want record b from an unpruned region", reply.Records, err, rig.root.PrunedN)
	}
}

// TestSummaryPruning: with fresh summaries, a filter naming one
// region's private value must skip the other regions entirely.
func TestSummaryPruning(t *testing.T) {
	rig := newShardRig(t, 3)
	now := rig.eng.Now()
	for s := 0; s < 3; s++ {
		rig.feed(t, s, Record{
			Name:   fmt.Sprintf("r%d/node", s),
			Source: fmt.Sprintf("r%d", s),
			Stamp:  now,
			Attrs:  map[string]string{"zone": fmt.Sprintf("zone%d", s), "cpus": fmt.Sprint(4 * (s + 1))},
		}, 30*time.Minute)
	}
	for _, rg := range rig.regions {
		rg.StartSummaryPush("rootidx", time.Minute)
	}
	rig.eng.RunUntil(time.Second)
	if rig.root.SummaryFresh() != 3 {
		t.Fatalf("summaries fresh = %d, want 3", rig.root.SummaryFresh())
	}

	reply, err := rig.root.QueryShards(Query{Filters: []Filter{{"zone", FEq, "zone1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Records) != 1 || reply.Records[0].Name != "r1/node" {
		t.Fatalf("reply = %+v", reply.Records)
	}
	if rig.root.FanoutN != 1 || rig.root.PrunedN != 2 {
		t.Errorf("fanout=%d pruned=%d, want 1/2", rig.root.FanoutN, rig.root.PrunedN)
	}

	// Numeric range pruning: only region 2 has cpus=12.
	rig.root.FanoutN, rig.root.PrunedN = 0, 0
	if _, err := rig.root.QueryShards(Query{Filters: []Filter{{"cpus", FGt, "8"}}}); err != nil {
		t.Fatal(err)
	}
	if rig.root.FanoutN != 1 || rig.root.PrunedN != 2 {
		t.Errorf("numeric fanout=%d pruned=%d, want 1/2", rig.root.FanoutN, rig.root.PrunedN)
	}

	// An attribute no region carries prunes everything.
	rig.root.FanoutN, rig.root.PrunedN = 0, 0
	if _, err := rig.root.QueryShards(Query{Filters: []Filter{{"ghost", FEq, "x"}}}); err != nil {
		t.Fatal(err)
	}
	if rig.root.FanoutN != 0 || rig.root.PrunedN != 3 {
		t.Errorf("ghost fanout=%d pruned=%d, want 0/3", rig.root.FanoutN, rig.root.PrunedN)
	}
}

// TestStaleSummaryIsConservative: when a region's summary lapses, the
// root must consult it anyway — ignorance never excludes.
func TestStaleSummaryIsConservative(t *testing.T) {
	rig := newShardRig(t, 2)
	now := rig.eng.Now()
	rig.feed(t, 0, Record{Name: "a/n", Source: "a", Stamp: now,
		Attrs: map[string]string{"zone": "east"}}, time.Hour)
	rig.feed(t, 1, Record{Name: "b/n", Source: "b", Stamp: now,
		Attrs: map[string]string{"zone": "west"}}, time.Hour)
	rig.regions[0].StartSummaryPush("rootidx", time.Minute)
	rig.regions[1].StartSummaryPush("rootidx", time.Minute)
	rig.eng.RunUntil(time.Second)

	// Region 1 goes quiet; its summary TTL (2m) lapses.
	rig.regions[1].StopSummaryPush()
	rig.eng.RunUntil(5 * time.Minute)
	if rig.root.SummaryFresh() != 1 {
		t.Fatalf("fresh summaries = %d, want 1", rig.root.SummaryFresh())
	}
	rig.root.FanoutN, rig.root.PrunedN, rig.root.UnknownN = 0, 0, 0
	reply, err := rig.root.QueryShards(Query{Filters: []Filter{{"zone", FEq, "west"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Region 0's fresh summary excludes it; region 1 is unknown and
	// must still be asked — and it holds the match.
	if len(reply.Records) != 1 || reply.Records[0].Name != "b/n" {
		t.Fatalf("stale-summary region's record lost: %+v", reply.Records)
	}
	if rig.root.UnknownN != 1 || rig.root.PrunedN != 1 {
		t.Errorf("unknown=%d pruned=%d, want 1/1", rig.root.UnknownN, rig.root.PrunedN)
	}
}

// TestSummaryDeltaPush: a quiet region elides every other uplink tick
// (the TTL tolerates one silence); a widening region pushes every tick.
func TestSummaryDeltaPush(t *testing.T) {
	rig := newShardRig(t, 2)
	quiet, busy := rig.regions[0], rig.regions[1]
	now := rig.eng.Now()
	rig.feed(t, 0, Record{Name: "q/n", Source: "q", Stamp: now,
		Attrs: map[string]string{"os": "linux"}}, time.Hour)
	quiet.StartSummaryPush("rootidx", time.Minute)
	busy.StartSummaryPush("rootidx", time.Minute)
	tick := 0
	rig.eng.NewTicker(time.Minute, func() {
		tick++
		// Strictly increasing value keeps widening busy's numeric range.
		if err := busy.RegisterRecord(Registration{Rec: Record{
			Name: "b/n", Source: "b", Stamp: rig.eng.Now(),
			Attrs: map[string]string{"load": fmt.Sprint(tick)},
		}, TTL: time.Hour}); err != nil {
			t.Error(err)
		}
	})
	rig.eng.RunUntil(10*time.Minute + time.Second)

	if quiet.SummarySkipN == 0 {
		t.Errorf("quiet region never skipped a push (push=%d skip=%d)", quiet.SummaryPushN, quiet.SummarySkipN)
	}
	if quiet.SummaryPushN+quiet.SummarySkipN != 11 {
		t.Errorf("quiet ticks = %d, want 11", quiet.SummaryPushN+quiet.SummarySkipN)
	}
	if quiet.SummaryPushN > 7 {
		t.Errorf("quiet region pushed %d of 11 ticks; delta elision not working", quiet.SummaryPushN)
	}
	if busy.SummarySkipN > 1 {
		t.Errorf("widening region skipped %d pushes", busy.SummarySkipN)
	}
	// The quiet region's summary must nonetheless stay fresh at the root.
	if rig.root.SummaryFresh() != 2 {
		t.Errorf("fresh summaries = %d, want 2", rig.root.SummaryFresh())
	}
}

// TestRegionSweepTightensSummary: sweeping expired slots rebuilds the
// summary over survivors, so pruning precision recovers.
func TestRegionSweepTightensSummary(t *testing.T) {
	rig := newShardRig(t, 1)
	rg := rig.regions[0]
	now := rig.eng.Now()
	rig.feed(t, 0, Record{Name: "short", Source: "s", Stamp: now,
		Attrs: map[string]string{"os": "aix"}}, time.Minute)
	rig.feed(t, 0, Record{Name: "long", Source: "s", Stamp: now,
		Attrs: map[string]string{"os": "linux"}}, time.Hour)
	rig.eng.RunUntil(2 * time.Minute)
	if got := rg.Sweep(); got != 1 {
		t.Fatalf("swept %d, want 1", got)
	}
	s := rg.Summary(time.Minute)
	for _, ks := range s.Keys {
		if ks.Key == "os" {
			if len(ks.Values) != 1 || ks.Values[0] != "linux" {
				t.Errorf("post-sweep os values = %v, want [linux]", ks.Values)
			}
		}
	}
	// The freed slot is reused by the next registration.
	slots := rg.Slots()
	rig.feed(t, 0, Record{Name: "fresh", Source: "s", Stamp: rig.eng.Now(),
		Attrs: map[string]string{"os": "plan9"}}, time.Hour)
	if rg.Slots() != slots {
		t.Errorf("slots grew %d -> %d despite free list", slots, rg.Slots())
	}
}

// TestRootNoRegions: the fan-out API reports an error rather than
// silently returning an empty reply.
func TestRootNoRegions(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("rootidx", "HQ", 1e6)
	root := NewRootIndex(eng, net, "rootidx")
	if _, err := root.QueryShards(Query{}); err == nil {
		t.Fatal("no-region query succeeded")
	}
}

// TestGIISRefreshAllocFree: re-registering a known name with a fixed
// key set must not allocate — the satellite fix for the per-push
// map churn.
func TestGIISRefreshAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("flat", "HQ", 1e6)
	g := NewGIIS(eng, net, "flat")
	// Hoisted into an interface once: the handler's `any` parameter would
	// otherwise box the Registration on every call and charge the test an
	// allocation the register path doesn't own.
	var raw any = Registration{Rec: Record{Name: "n", Source: "s",
		Attrs: map[string]string{"os": "linux", "cpus": "4", "load": "0.5"}}, TTL: time.Minute}
	if _, err := g.handleRegister("s", raw); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := g.handleRegister("s", raw); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("steady-state GIIS refresh allocates %.1f objects/op, want 0", n)
	}
}

// TestRegionRefreshAllocFree: the dense store's in-place rewrite must
// also be alloc-free once the name and keys are known.
func TestRegionRefreshAllocFree(t *testing.T) {
	rig := newShardRig(t, 1)
	reg := Registration{Rec: Record{Name: "n", Source: "s",
		Attrs: map[string]string{"os": "linux", "cpus": "4", "load": "0.5"}}, TTL: time.Minute}
	if err := rig.regions[0].RegisterRecord(reg); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if err := rig.regions[0].RegisterRecord(reg); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("steady-state region refresh allocates %.1f objects/op, want 0", n)
	}
}

// TestGRISIntoRefreshAllocFree: a fill-style provider's snapshot reuses
// its persistent record and map.
func TestGRISIntoRefreshAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("n1", "HQ", 1e6)
	g := NewGRIS(eng, net, "n1")
	load := 0
	g.AddProviderInto("n1/compute", func(attrs map[string]string) {
		attrs["os"] = "linux"
		attrs["load"] = fmt.Sprint(load) // varies, same key set
	})
	_ = g.record(&g.providers[0])
	n := testing.AllocsPerRun(200, func() {
		load = (load + 1) % 4 // small ints: fmt.Sprint hits cached strings
		_ = g.record(&g.providers[0])
	})
	if n != 0 {
		t.Errorf("fill-style refresh allocates %.1f objects/op, want 0", n)
	}
}

// TestProviderIntoVisibleToIndex: end to end, a fill-style provider's
// refreshed values reach the index like a classic provider's.
func TestProviderIntoVisibleToIndex(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("flat", "HQ", 1e6)
	net.AddHost("n1", "HQ", 1e6)
	idx := NewGIIS(eng, net, "flat")
	g := NewGRIS(eng, net, "n1")
	load := 0
	g.AddProviderInto("n1/compute", func(attrs map[string]string) {
		attrs["load"] = fmt.Sprint(load)
	})
	g.StartPush("flat", time.Minute)
	eng.RunUntil(time.Second)
	load = 7
	eng.RunUntil(90 * time.Second)
	reply := idx.Eval(Query{Filters: []Filter{{"load", FEq, "7"}}})
	if len(reply.Records) != 1 {
		t.Errorf("refreshed fill-style attr not visible: %+v", reply)
	}
	g.Stop()
}

// appendGrowths is how many times appending n records one at a time to a
// nil slice reallocates: what a reply's []Record costs, and all it may.
func appendGrowths(n int) (grown float64) {
	var rs []Record
	for i := 0; i < n; i++ {
		if len(rs) == cap(rs) {
			grown++
		}
		rs = append(rs, Record{})
	}
	return grown
}

// TestServedAttrsFollowRefresh: the map a region hands out for a record is
// the one it keeps, so it must track every way the record can change — a
// value rewritten in place, a key set re-laid, a sweep and a return — and
// a repeated query must allocate its []Record and nothing else, whatever
// the region holds.
func TestServedAttrsFollowRefresh(t *testing.T) {
	const target = "s00/n0000"
	q := Query{Filters: []Filter{{"os", FEq, "linux"}}, Limit: 10}
	for _, n := range []int{640, 6400} {
		rig := newShardRig(t, 1)
		rg := rig.regions[0]
		for i := 0; i < n; i++ {
			rig.feed(t, 0, Record{Name: fmt.Sprintf("s%02d/n%04d", i%7, i), Source: "s",
				Attrs: map[string]string{"os": []string{"linux", "aix"}[i%2], "cpus": "4", "load": "1"}}, time.Hour)
		}
		register := func(ttl time.Duration, attrs map[string]string) {
			rig.feed(t, 0, Record{Name: target, Source: "s", Stamp: rig.eng.Now(), Attrs: attrs}, ttl)
		}
		// check serves q twice: the answer is the reference's, the target
		// leads it with exactly want (nil: is not in it), and the second
		// serving allocates the reply slice alone.
		check := func(step string, want map[string]string) map[string]string {
			t.Helper()
			reply := rg.Eval(q)
			if got, ref := renderReply(reply), renderReply(refEval(rg, q)); !bytes.Equal(got, ref) {
				t.Fatalf("%d records, %s:\n%s--- reference ---\n%s", n, step, got, ref)
			}
			var served map[string]string
			if reply.Records[0].Name == target {
				served = reply.Records[0].Attrs
			}
			if !reflect.DeepEqual(served, want) {
				t.Fatalf("%d records, %s: %s served with %v, want %v", n, step, target, served, want)
			}
			if got, want := testing.AllocsPerRun(20, func() { rg.Eval(q) }), appendGrowths(len(reply.Records)); got != want {
				t.Errorf("%d records, %s: a repeated query allocates %.0f objects, want the %.0f of its []Record", n, step, got, want)
			}
			return served
		}

		first := check("first serve", map[string]string{"os": "linux", "cpus": "4", "load": "1"})
		register(time.Hour, map[string]string{"os": "linux", "cpus": "4", "load": "2"})
		check("value refreshed in place", map[string]string{"os": "linux", "cpus": "4", "load": "2"})
		register(time.Minute, map[string]string{"os": "linux", "cpus": "4", "gpu": "1"})
		held := check("key swapped", map[string]string{"os": "linux", "cpus": "4", "gpu": "1"})
		if !reflect.DeepEqual(first, held) {
			t.Errorf("%d records: the map served first reads %v after two refreshes, the record %v", n, first, held)
		}

		rig.eng.RunUntil(rig.eng.Now() + 2*time.Minute)
		check("expired", nil)
		if swept := rg.Sweep(); swept != 1 {
			t.Fatalf("%d records: swept %d, want 1", n, swept)
		}
		check("swept", nil)
		register(time.Hour, map[string]string{"os": "linux"})
		check("back after sweep", map[string]string{"os": "linux"})
		if want := map[string]string{"os": "linux", "cpus": "4", "gpu": "1"}; !reflect.DeepEqual(held, want) {
			t.Errorf("%d records: a map served before the sweep reads %v after it, want %v untouched", n, held, want)
		}
	}
}
