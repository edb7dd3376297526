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
		if r.slots[i].expires > now {
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
		idx = int32(len(r.slots))
		r.slots = append(r.slots, regSlot{})
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

// refQueryShards is QueryShards as it stood before the merge, less its
// pruning: every attached region's Eval, concatenated, sorted by name, cut
// at Limit. It reads no summary, so a prune that loses a record and a
// merge that misorders one both show against it.
func refQueryShards(rt *RootIndex, q Query) QueryReply {
	now := rt.eng.Now()
	var merged []Record
	for _, rg := range rt.regions {
		merged = append(merged, rg.Eval(q).Records...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name })
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	reply := QueryReply{Records: merged}
	for _, rec := range merged {
		if age := now - rec.Stamp; age > reply.MaxStale {
			reply.MaxStale = age
		}
	}
	return reply
}

// twinDiff says where a region and its refRegister twin differ, "" when
// they do not: slot contents, registration count and summary. DeepEqual
// compares every KeySummary field, so an overflowed key's Hashed filter
// is held bit for bit too.
func twinDiff(got, want *RegionIndex) string {
	sameSlot := func(a, b regSlot) bool {
		return a.name == b.name && a.source == b.source && a.stamp == b.stamp && a.expires == b.expires &&
			slices.Equal(a.keys, b.keys) && slices.Equal(a.vals, b.vals)
	}
	if !slices.EqualFunc(got.slots, want.slots, sameSlot) {
		return fmt.Sprintf("slots %+v, reference %+v", got.slots, want.slots)
	}
	if got.RegisterN != want.RegisterN {
		return fmt.Sprintf("RegisterN %d, reference %d", got.RegisterN, want.RegisterN)
	}
	gs, ws := got.Summary(time.Minute), want.Summary(time.Minute)
	ws.Region = gs.Region
	if !reflect.DeepEqual(gs, ws) {
		return fmt.Sprintf("summary %+v, reference %+v", gs, ws)
	}
	return ""
}

// freshSummaries counts the region summaries rt holds whose TTL has not
// lapsed.
func freshSummaries(rt *RootIndex) int {
	n := 0
	for _, rs := range rt.sums {
		if rs.expires > rt.eng.Now() {
			n++
		}
	}
	return n
}

// summaryOf returns key's entry in rg's current summary, zero when absent.
func summaryOf(rg *RegionIndex, key string) KeySummary {
	for _, ks := range rg.Summary(time.Minute).Keys {
		if ks.Key == key {
			return ks
		}
	}
	return KeySummary{}
}

// TestShardedMatchesFlat is the differential gate: over a seeded grid
// of sites with churning attributes, partial refresh loss (expiring
// records), and a spread of query shapes, the sharded plane must return
// byte-identical replies to the flat registry. Nine sites a region
// overflow every region's site set, so site= prunes through the filter.
func TestShardedMatchesFlat(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rig := newShardRig(t, 4)
		rng := rand.New(rand.NewSource(seed))
		const nSites, perSite = 36, 3
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
			rig.root.AbsorbSummary(rg.Summary(2 * time.Minute))
		}
		rig.eng.RunUntil(12 * time.Minute)
		if freshSummaries(rig.root) != len(rig.regions) {
			t.Fatalf("seed %d: %d summaries fresh, want %d", seed, freshSummaries(rig.root), len(rig.regions))
		}
		for _, rg := range rig.regions {
			if !summaryOf(rg, "site").Overflow {
				t.Fatalf("seed %d: region %s's site set has not overflowed", seed, rg.Name())
			}
		}

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
			{Filters: []Filter{{"site", FEq, "site34"}, {"cpus", FGe, "2"}}, Limit: 2},
			{Filters: []Filter{{"site", FEq, "site99"}}}, // absent everywhere
			{Filters: []Filter{{"os", FGt, "3"}}},        // non-numeric attr side
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
// ordering filter. A record that expires leaves its value in the range.
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
	check("after c expires", 3, 12)
	rig.root.AbsorbSummary(rg.Summary(time.Minute))
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
		rig.root.AbsorbSummary(rg.Summary(2 * time.Minute))
	}
	rig.eng.RunUntil(time.Second)
	if freshSummaries(rig.root) != 3 {
		t.Fatalf("summaries fresh = %d, want 3", freshSummaries(rig.root))
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
	for _, rg := range rig.regions {
		rig.root.AbsorbSummary(rg.Summary(2 * time.Minute))
	}

	// Region 1 goes quiet; its summary TTL (2m) lapses while region 0's
	// is absorbed again.
	rig.eng.RunUntil(5 * time.Minute)
	rig.root.AbsorbSummary(rig.regions[0].Summary(2 * time.Minute))
	if freshSummaries(rig.root) != 1 {
		t.Fatalf("fresh summaries = %d, want 1", freshSummaries(rig.root))
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

// TestValueAfterOverflowReachesRoot: a value that first arrives after its
// key overflowed sets new filter bits. The summary the root held before
// prunes the region for it; once the new summary is absorbed, the root
// consults the region and finds the record.
func TestValueAfterOverflowReachesRoot(t *testing.T) {
	rig := newShardRig(t, 2)
	rg, quiet := rig.regions[0], rig.regions[1]
	register := func(r *RegionIndex, site string) {
		t.Helper()
		if err := r.RegisterRecord(Registration{Rec: Record{Name: site + "/n", Source: site, Stamp: rig.eng.Now(),
			Attrs: map[string]string{"site": site}}, TTL: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= summaryValueCap; i++ {
		register(rg, fmt.Sprintf("s%d", i))
	}
	register(quiet, "t0")
	const late = "late"
	if ks := summaryOf(rg, "site"); !ks.Overflow || ks.Hashed.probe(late, false) {
		t.Fatalf("site overflow=%v, filter admits %q before it arrives: pick another value", ks.Overflow, late)
	}
	rig.root.AbsorbSummary(rg.Summary(time.Hour))
	rig.root.AbsorbSummary(quiet.Summary(time.Hour))
	register(rg, late)
	q := Query{Filters: []Filter{{"site", FEq, late}}}
	if reply, err := rig.root.QueryShards(q); err != nil || len(reply.Records) != 0 || rig.root.PrunedN != 2 {
		t.Fatalf("site=%s before the absorb: %+v err=%v pruned=%d, want both regions pruned on the old summaries",
			late, reply.Records, err, rig.root.PrunedN)
	}
	rig.root.AbsorbSummary(rg.Summary(time.Hour))
	rig.root.FanoutN, rig.root.PrunedN = 0, 0
	reply, err := rig.root.QueryShards(q)
	if err != nil || len(reply.Records) != 1 || rig.root.FanoutN != 1 || rig.root.PrunedN != 1 {
		t.Fatalf("site=%s: %+v err=%v fanout=%d pruned=%d, want its record from the one region that holds it",
			late, reply.Records, err, rig.root.FanoutN, rig.root.PrunedN)
	}
}

// TestSiteQueryPruningPower: on mds-discovery's shape — 16 regions × 64
// sites, E14's attributes, a few nodes a site — every region's site set
// has overflowed, and site=sNNNN asked once for every site consults on
// average at most 1.5 of the 16 regions: its own, plus the filters'
// false positives.
func TestSiteQueryPruningPower(t *testing.T) {
	const regions, sitesPer, nodesPer = 16, 64, 3
	rig := newShardRig(t, regions)
	for g := 0; g < regions*sitesPer; g++ {
		rg := rig.regions[g/sitesPer]
		for n := 0; n < nodesPer; n++ {
			if err := rg.RegisterRecord(Registration{Rec: Record{Name: fmt.Sprintf("s%04d/n%03d", g, n), Source: "s",
				Attrs: map[string]string{
					"region": rg.Name(),
					"site":   fmt.Sprintf("s%04d", g),
					"os":     []string{"linux", "planetlab", "linux"}[n%3],
					"cpus":   fmt.Sprint(2 << uint(n%4)),
					"load":   fmt.Sprint((n*7 + g) % 32),
				}}, TTL: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, rg := range rig.regions {
		rig.root.AbsorbSummary(rg.Summary(time.Hour))
	}
	for g := 0; g < regions*sitesPer; g++ {
		reply, err := rig.root.QueryShards(Query{Filters: []Filter{{"site", FEq, fmt.Sprintf("s%04d", g)}}})
		if err != nil || len(reply.Records) != nodesPer {
			t.Fatalf("site s%04d: %d records err=%v, want %d", g, len(reply.Records), err, nodesPer)
		}
	}
	queries := regions * sitesPer
	mean := float64(rig.root.FanoutN) / float64(queries)
	t.Logf("site=sNNNN over %d sites consults %.4f of %d regions on average (%d false positives in %d summaries)",
		queries, mean, regions, rig.root.FanoutN-queries, queries*(regions-1))
	if mean > 1.5 {
		t.Errorf("site= consults %.4f regions on average, want at most 1.5", mean)
	}
}

// TestRootQueryAllocs: a root query allocates each consulted region's
// reply and one merged slice, nothing for a region it prunes; and a name
// two regions hold comes back from both, in attachment order.
func TestRootQueryAllocs(t *testing.T) {
	rig := newShardRig(t, 16)
	register := func(rg *RegionIndex, name string, attrs map[string]string) {
		t.Helper()
		if err := rg.RegisterRecord(Registration{Rec: Record{Name: name, Source: rg.Name(), Attrs: attrs}, TTL: time.Hour}); err != nil {
			t.Fatal(err)
		}
		rig.root.AbsorbSummary(rg.Summary(time.Hour))
	}
	for r, rg := range rig.regions {
		for s := 0; s < 64; s++ {
			site := fmt.Sprintf("s%04d", r*64+s)
			attrs := map[string]string{"site": site}
			if s == 0 {
				attrs["gpu"] = "1"
			}
			register(rg, site+"/n000", attrs)
		}
	}
	for _, q := range []Query{
		{Filters: []Filter{{"gpu", FEq, "1"}}, Limit: 10},      // every region, one record each
		{Filters: []Filter{{"site", FEq, "s0100"}}, Limit: 10}, // its region alone
	} {
		f0 := rig.root.FanoutN
		reply, err := rig.root.QueryShards(q)
		if err != nil || len(reply.Records) == 0 {
			t.Fatalf("%+v: %d records err=%v", q, len(reply.Records), err)
		}
		consulted := rig.root.FanoutN - f0
		if allocs := testing.AllocsPerRun(20, func() { _, _ = rig.root.QueryShards(q) }); allocs > float64(consulted+1) {
			t.Errorf("%+v consults %d regions and allocates %.0f objects, want at most %d", q, consulted, allocs, consulted+1)
		}
	}

	register(rig.regions[3], "dup", map[string]string{"gpu": "2"})
	register(rig.regions[1], "dup", map[string]string{"gpu": "2"})
	for limit, want := range [][]string{{"R1", "R3"}, {"R1"}} {
		reply, err := rig.root.QueryShards(Query{Filters: []Filter{{"gpu", FEq, "2"}}, Limit: limit})
		var got []string
		for _, rec := range reply.Records {
			got = append(got, rec.Source)
		}
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("limit %d: a name two regions hold comes from %v err=%v, want %v", limit, got, err, want)
		}
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
	reg := Registration{Rec: Record{Name: "n", Source: "s",
		Attrs: map[string]string{"os": "linux", "cpus": "4", "load": "0.5"}}, TTL: time.Minute}
	if _, err := g.handleRegister("s", reg); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := g.handleRegister("s", reg); err != nil {
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
// value rewritten in place, a key set re-laid, expiry and a return — and
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
		register(time.Hour, map[string]string{"os": "linux"})
		back := check("back after expiry", map[string]string{"os": "linux"})
		if !reflect.DeepEqual(held, back) {
			t.Errorf("%d records: a map served before expiry reads %v after the return, the record %v", n, held, back)
		}
	}
}

// TestEachLiveWalksEvalOrder: EachLive visits exactly the records an
// unfiltered Eval returns, in its order, through out-of-order arrivals and
// expiry, and serves nothing: no attribute map is built and QueryN stays.
func TestEachLiveWalksEvalOrder(t *testing.T) {
	rig := newShardRig(t, 1)
	rg := rig.regions[0]
	for i := 0; i < 40; i++ {
		ttl := time.Hour
		if i%5 == 0 {
			ttl = time.Minute
		}
		rig.feed(t, 0, Record{Name: fmt.Sprintf("n%02d", (i*17)%40), Source: fmt.Sprintf("h%d", i%3),
			Attrs: map[string]string{"os": "linux"}}, ttl)
	}
	for _, at := range []time.Duration{0, 2 * time.Minute} {
		rig.eng.RunUntil(at)
		var walked []string
		rg.EachLive(func(name, source string) { walked = append(walked, name+"@"+source) })
		for i := range rg.slots {
			if rg.slots[i].attrs != nil {
				t.Fatalf("at %v: EachLive built %s's attribute map", at, rg.slots[i].name)
			}
		}
		if rg.QueryN != 0 {
			t.Fatalf("at %v: EachLive moved QueryN to %d", at, rg.QueryN)
		}
		var want []string
		for _, rec := range refEval(rg, Query{}).Records {
			want = append(want, rec.Name+"@"+rec.Source)
		}
		if !slices.Equal(walked, want) {
			t.Fatalf("at %v: EachLive walked %v, want %v", at, walked, want)
		}
	}
}
