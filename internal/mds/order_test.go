package mds

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/snaptest"
	"repro/internal/simnet"
)

// orderDriver is the model-based harness for the order index: one
// ticker draws a random op per virtual minute against a region and the
// flat oracle fed the same registrations. Names come from a pool in
// random order, so a new name usually sorts before the last arrival
// (the unsorted-then-sorted path), refreshes hit names in place, short
// TTLs expire records between queries, and Sweep frees slots that the
// next new name — sorting anywhere — reuses. Every query is answered
// three ways and logged; disagreement lands in bad.
//
// ref is rg's twin: it takes the same registrations through refRegister
// and the same sweeps, and after each the two must hold the same slots,
// summary and version (twinDiff). A registration keeps, swaps (load for
// gpu, same count) or grows its key set and redraws its values, so the
// in-place refresh, its key-set miss and the skipped absorb all occur; one
// in sixteen has no name, which all three indexes must refuse alike.
type orderDriver struct {
	eng  *sim.Engine
	flat *flatGIIS
	rg   *RegionIndex
	ref  *RegionIndex
	rng  *rand.Rand
	seen map[string]bool

	log bytes.Buffer
	bad []string
	// Coverage of the paths the harness exists for; cov counts
	// registrations by refreshPaths name.
	sortsN, reusedN, expiredSeenN int
	cov                           map[string]int
}

// refreshPaths are the ways a registration can meet the region, told from
// the slot as it stood before: refreshed in place, with a value unchanged
// (so not absorbed), key set changed (the full layout), changed at an equal
// count (the swap), name expired but not yet swept, name freed by an
// earlier Sweep, no name at all. The harness must reach every one.
var refreshPaths = []string{"in place", "absorb skipped", "fell through", "key swap", "expired unswept", "back after sweep", "nameless"}

// observe files reg under its refreshPaths before the indexes see it.
func (d *orderDriver) observe(reg Registration) {
	name, attrs := reg.Rec.Name, reg.Rec.Attrs
	idx, known := d.rg.byName[name]
	switch {
	case name == "":
		d.cov["nameless"]++
		return
	case !known:
		if d.seen[name] {
			d.cov["back after sweep"]++
		}
		d.seen[name] = true
		return
	}
	s := &d.rg.slots[idx]
	if s.expires <= d.eng.Now() {
		d.cov["expired unswept"]++
	}
	same, unchanged := len(attrs) == len(s.keys), 0
	for j, id := range s.keys {
		v, ok := attrs[d.rg.in.Key(id)]
		same = same && ok
		if ok && v == s.vals[j] {
			unchanged++
		}
	}
	switch {
	case same:
		d.cov["in place"]++
		d.cov["absorb skipped"] += unchanged
	case len(attrs) == len(s.keys):
		d.cov["key swap"]++
		fallthrough
	default:
		d.cov["fell through"]++
	}
}

var (
	orderLoads   = []string{"0.5", "3", "7.25", "12", "inf", "-Inf", "nan", "irix", ""}
	orderQueries = []Query{
		{},
		{Limit: 3},
		{Filters: []Filter{{"os", FEq, "linux"}}, Limit: 4},
		{Filters: []Filter{{"os", FNe, "linux"}}},
		{Filters: []Filter{{"load", FGt, "5"}}},
		{Filters: []Filter{{"load", FLe, "inf"}}, Limit: 5},
		{Filters: []Filter{{"load", FLt, "x"}}}, // non-numeric right-hand side
		{Filters: []Filter{{"os", FEq, "linux"}, {"cpus", FGe, "4"}}, Limit: 2},
		{Filters: []Filter{{"gpu", FEq, "1"}}},
		{Filters: []Filter{{"ghost", FEq, "x"}}}, // never interned
	}
)

func buildOrderDriver(seed int64) (*sim.Engine, *orderDriver) {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("flat", "HQ", 1e6)
	net.AddHost("region", "HQ", 1e6)
	net.AddHost("refregion", "HQ", 1e6)
	net.AddHost("root", "HQ", 1e6)
	d := &orderDriver{
		eng:  eng,
		flat: newFlatGIIS(eng, net, "flat"),
		rg:   NewRegionIndex(eng, net, "region", "R", nil),
		ref:  NewRegionIndex(eng, net, "refregion", "R", nil),
		rng:  eng.ForkRand(),
		seen: make(map[string]bool),
		cov:  make(map[string]int),
	}
	eng.SnapRoot("mds.orderdriver", d)
	eng.NewTicker(time.Minute, d.step)
	// Both uplinks tick between steps, so equal versions push and skip alike.
	d.rg.StartSummaryPush("root", time.Minute)
	d.ref.StartSummaryPush("root", time.Minute)
	return eng, d
}

func (d *orderDriver) step() {
	switch op := d.rng.Intn(10); {
	case op < 5:
		d.register()
		d.register()
	case op < 9:
		d.query(orderQueries[d.rng.Intn(len(orderQueries))])
	default:
		d.flat.Sweep()
		d.ref.Sweep()
		fmt.Fprintf(&d.log, "sweep freed=%d slots=%d\n", d.rg.Sweep(), d.rg.Slots())
		d.checkTwin("sweep")
	}
}

func (d *orderDriver) checkTwin(after string) {
	if diff := twinDiff(d.rg, d.ref); diff != "" {
		d.bad = append(d.bad, fmt.Sprintf("t=%v after %s: %s", d.eng.Now(), after, diff))
	}
	if d.flat.RegisterN != d.rg.RegisterN {
		d.bad = append(d.bad, fmt.Sprintf("t=%v after %s: flat RegisterN %d, region %d", d.eng.Now(), after, d.flat.RegisterN, d.rg.RegisterN))
	}
}

func (d *orderDriver) register() {
	name := fmt.Sprintf("n%02d", d.rng.Intn(40))
	rec := Record{Name: name, Source: "s" + name[1:2], Stamp: d.eng.Now(), Attrs: map[string]string{
		"os":   []string{"linux", "aix", "irix"}[d.rng.Intn(3)],
		"cpus": fmt.Sprint(1 << uint(d.rng.Intn(4))),
		"load": orderLoads[d.rng.Intn(len(orderLoads))],
	}}
	switch d.rng.Intn(8) {
	case 0, 1:
		rec.Attrs["gpu"] = "1"
	case 2:
		// Same count, other set: what comparing len alone would miss.
		delete(rec.Attrs, "load")
		rec.Attrs["gpu"] = "1"
	}
	if d.rng.Intn(16) == 0 {
		rec.Name = ""
	}
	reg := Registration{Rec: rec, TTL: time.Duration(2+d.rng.Intn(9)) * time.Minute}
	d.observe(reg)
	_, known := d.rg.byName[rec.Name]
	slots, free := d.rg.Slots(), len(d.rg.free)
	_, flatErr := d.flat.handleRegister(rec.Source, reg)
	errs := [3]error{flatErr, d.rg.RegisterRecord(reg), refRegister(d.ref, reg)}
	for _, err := range errs {
		// A nameless registration is refused in the same words by all
		// three; a named one by none.
		if (err != nil) != (rec.Name == "") || fmt.Sprint(err) != fmt.Sprint(errs[0]) {
			d.bad = append(d.bad, fmt.Sprintf("t=%v register %q: flat, region, reference returned %q", d.eng.Now(), rec.Name, errs))
			break
		}
	}
	if rec.Name != "" && !known && free > 0 && d.rg.Slots() == slots {
		d.reusedN++
	}
	d.checkTwin("register " + rec.Name)
}

func (d *orderDriver) query(q Query) {
	if d.rg.unsorted {
		d.sortsN++
	}
	if d.rg.Live() < len(d.rg.order) {
		d.expiredSeenN++
	}
	want := renderReply(refEval(d.rg, q))
	got := renderReply(d.rg.Eval(q))
	flat := renderReply(d.flat.Eval(q))
	fmt.Fprintf(&d.log, "t=%v %+v\n%s", d.eng.Now(), q, got)
	if !bytes.Equal(got, want) || !bytes.Equal(got, flat) {
		d.bad = append(d.bad, fmt.Sprintf("t=%v query %+v:\n--- order walk ---\n%s--- collect+sort ---\n%s--- flat ---\n%s",
			d.eng.Now(), q, got, want, flat))
	}
}

// TestOrderIndexMatchesReference is the model-based differential for
// the order index: 20 seeds of random op sequences, every Eval byte for
// byte against the collect-and-sort reference and the flat oracle.
func TestOrderIndexMatchesReference(t *testing.T) {
	var sorts, reused, expired int
	cov := make(map[string]int)
	for _, seed := range snaptest.Seeds(1, 20) {
		eng, d := buildOrderDriver(seed)
		eng.RunUntil(5 * time.Hour)
		// One divergence fails every later check: the first few say where.
		for _, b := range d.bad[:min(len(d.bad), 3)] {
			t.Errorf("seed %d (%d divergences): %s", seed, len(d.bad), b)
		}
		if len(d.rg.order) != len(d.rg.byName) {
			t.Errorf("seed %d: order holds %d slots for %d names", seed, len(d.rg.order), len(d.rg.byName))
		}
		if d.rg.SummaryPushN != d.ref.SummaryPushN || d.rg.SummarySkipN != d.ref.SummarySkipN || d.rg.SummarySkipN == 0 {
			t.Errorf("seed %d: uplink pushed %d skipped %d, reference %d and %d; want equal and some skipped",
				seed, d.rg.SummaryPushN, d.rg.SummarySkipN, d.ref.SummaryPushN, d.ref.SummarySkipN)
		}
		sorts += d.sortsN
		reused += d.reusedN
		expired += d.expiredSeenN
		for path, n := range d.cov {
			cov[path] += n
		}
	}
	if sorts == 0 || reused == 0 || expired == 0 {
		t.Errorf("harness never reached a path it exists for: lazy sorts=%d slot reuses=%d queries over expired slots=%d", sorts, reused, expired)
	}
	for _, path := range refreshPaths {
		if cov[path] == 0 {
			t.Errorf("harness never made a %q registration: %v", path, cov)
		}
	}
}

// TestForkVsColdShardedIndex: the order index and its unsorted mark are
// walker-visible state — out-of-order registrations, queries and sweeps
// past a snapshot must replay byte-identically after Fork.
func TestForkVsColdShardedIndex(t *testing.T) {
	snaptest.Scenario{
		Name: "mds.orderindex",
		Build: func(seed int64) (*sim.Engine, func() []byte) {
			eng, d := buildOrderDriver(seed)
			return eng, func() []byte {
				out := bytes.Clone(d.log.Bytes())
				for _, b := range d.bad {
					out = fmt.Appendf(out, "DIVERGED %s\n", b)
				}
				return out
			}
		},
		WarmUntil: 40 * time.Minute,
		Horizon:   2 * time.Hour,
	}.Run(t, snaptest.Seeds(1, 20))
}

// TestLimitedEvalAllocsIndependentOfRegionSize is the deterministic
// form of the speed-up: a Limit query allocates for what it returns, so
// the count is the same against 640 and 6,400 live records.
func TestLimitedEvalAllocsIndependentOfRegionSize(t *testing.T) {
	const limit = 10
	q := Query{Filters: []Filter{{"os", FEq, "linux"}}, Limit: limit}
	allocs := func(n int) float64 {
		rig := newShardRig(t, 1)
		for i := 0; i < n; i++ {
			rig.feed(t, 0, Record{Name: fmt.Sprintf("s%02d/n%04d", i%7, i), Source: "s",
				Attrs: map[string]string{"os": []string{"linux", "aix"}[i%2], "cpus": "4", "load": "1"}}, time.Hour)
		}
		if got := len(rig.regions[0].Eval(q).Records); got != limit {
			t.Fatalf("%d records: query returned %d, want %d", n, got, limit)
		}
		return testing.AllocsPerRun(50, func() { rig.regions[0].Eval(q) })
	}
	small, large := allocs(640), allocs(6400)
	if small != large {
		t.Errorf("Limit %d query allocates %.0f objects at 640 records and %.0f at 6400; want equal", limit, small, large)
	}
	if large > 4*limit {
		t.Errorf("Limit %d query allocates %.0f objects, want at most %d", limit, large, 4*limit)
	}
}
