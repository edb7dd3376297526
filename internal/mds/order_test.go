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
// ticker draws a random op per virtual minute against a region and a
// flat GIIS fed the same registrations. Names come from a pool in
// random order, so a new name usually sorts before the last arrival
// (the unsorted-then-sorted path), refreshes hit names in place, short
// TTLs expire records between queries, and Sweep frees slots that the
// next new name — sorting anywhere — reuses. Every query is answered
// three ways and logged; disagreement lands in bad.
type orderDriver struct {
	eng  *sim.Engine
	flat *GIIS
	rg   *RegionIndex
	rng  *rand.Rand

	log bytes.Buffer
	bad []string
	// Coverage of the paths the harness exists for.
	sortsN, reusedN, expiredSeenN int
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
	d := &orderDriver{
		eng:  eng,
		flat: NewGIIS(eng, net, "flat"),
		rg:   NewRegionIndex(eng, net, "region", "R", nil),
		rng:  eng.ForkRand(),
	}
	eng.SnapRoot("mds.orderdriver", d)
	eng.NewTicker(time.Minute, d.step)
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
		fmt.Fprintf(&d.log, "sweep freed=%d slots=%d\n", d.rg.Sweep(), d.rg.Slots())
	}
}

func (d *orderDriver) register() {
	name := fmt.Sprintf("n%02d", d.rng.Intn(40))
	rec := Record{Name: name, Source: "s" + name[1:2], Stamp: d.eng.Now(), Attrs: map[string]string{
		"os":   []string{"linux", "aix", "irix"}[d.rng.Intn(3)],
		"cpus": fmt.Sprint(1 << uint(d.rng.Intn(4))),
		"load": orderLoads[d.rng.Intn(len(orderLoads))],
	}}
	if d.rng.Intn(4) == 0 {
		rec.Attrs["gpu"] = "1"
	}
	reg := Registration{Rec: rec, TTL: time.Duration(2+d.rng.Intn(9)) * time.Minute}
	_, known := d.rg.byName[name]
	slots, free := d.rg.Slots(), len(d.rg.free)
	if _, err := d.flat.handleRegister(rec.Source, reg); err != nil {
		d.bad = append(d.bad, err.Error())
	}
	if err := d.rg.RegisterRecord(reg); err != nil {
		d.bad = append(d.bad, err.Error())
	}
	if !known && free > 0 && d.rg.Slots() == slots {
		d.reusedN++
	}
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
// byte against the collect-and-sort reference and the flat GIIS.
func TestOrderIndexMatchesReference(t *testing.T) {
	var sorts, reused, expired int
	for _, seed := range snaptest.Seeds(1, 20) {
		eng, d := buildOrderDriver(seed)
		eng.RunUntil(5 * time.Hour)
		for _, b := range d.bad {
			t.Errorf("seed %d: %s", seed, b)
		}
		if len(d.rg.order) != len(d.rg.byName) {
			t.Errorf("seed %d: order holds %d slots for %d names", seed, len(d.rg.order), len(d.rg.byName))
		}
		sorts += d.sortsN
		reused += d.reusedN
		expired += d.expiredSeenN
	}
	if sorts == 0 || reused == 0 || expired == 0 {
		t.Errorf("harness never reached a path it exists for: lazy sorts=%d slot reuses=%d queries over expired slots=%d", sorts, reused, expired)
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
