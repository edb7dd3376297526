package sim_test

// Differential gates for the incremental fluid allocator: the pruned
// dirty-set mode must be byte-identical — rates, completion order, and
// completion timestamps — to the full-recompute reference across a
// seeded churn grid, and the allocator's state (scratch slices included)
// must survive Snapshot/Fork. The tests live in the external test
// package so they can use snaptest, which itself imports sim.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/snaptest"
)

// fluidChurn is the scripted workload both gates share, hoisted into a
// SnapRoot-registrable struct per the snapshot-safety contract: the rng,
// the live set, and the event log all rewind with the system on Fork.
type fluidChurn struct {
	eng  *sim.Engine
	sys  *sim.FluidSystem
	rng  *rand.Rand
	res  []*sim.FluidResource
	live []*fluidTracked
	log  []string
	seq  int
}

// fluidTracked pairs a consumer with its id so completions can log a
// stable name and drop the entry from the live set.
type fluidTracked struct {
	c  *sim.FluidConsumer
	id int
	d  *fluidChurn
}

func (t *fluidTracked) done() {
	d := t.d
	d.log = append(d.log, fmt.Sprintf("%d done f%d", d.eng.Now(), t.id))
	for i, x := range d.live {
		if x == t {
			d.live = append(d.live[:i], d.live[i+1:]...)
			break
		}
	}
}

// tick performs one churn operation — add (with occasional cross-cluster
// paths and rate caps), remove, limit change, or capacity change — then
// logs every live consumer's rate as raw float bits, pinning the whole
// allocation, not just completions.
func (d *fluidChurn) tick() {
	d.seq++
	const perCluster = 3
	clusters := len(d.res) / perCluster
	switch op := d.rng.Intn(10); {
	case op < 5 || len(d.live) == 0: // add
		t := &fluidTracked{id: d.seq, d: d}
		work := 1e5 + float64(d.rng.Intn(900_000))
		cl := d.rng.Intn(clusters)
		rs := []*sim.FluidResource{d.res[cl*perCluster+d.rng.Intn(perCluster)]}
		switch d.rng.Intn(10) {
		case 0: // cross-cluster path: merges two components transitively
			cl2 := (cl + 1 + d.rng.Intn(clusters-1)) % clusters
			rs = append(rs, d.res[cl2*perCluster+d.rng.Intn(perCluster)])
		case 1, 2: // second hop within the cluster
			rs = append(rs, d.res[cl*perCluster+d.rng.Intn(perCluster)])
		}
		var limit float64
		if d.rng.Intn(10) < 3 {
			limit = 20 + float64(d.rng.Intn(80))
		}
		t.c = &sim.FluidConsumer{
			Name:   fmt.Sprintf("f%d", d.seq),
			Weight: float64(1 + d.rng.Intn(4)),
			Limit:  limit,
			OnDone: t.done,
		}
		d.live = append(d.live, t)
		d.sys.Add(t.c, work, rs...)
	case op < 7: // remove mid-flight
		i := d.rng.Intn(len(d.live))
		t := d.live[i]
		d.live = append(d.live[:i], d.live[i+1:]...)
		d.sys.Remove(t.c)
		d.log = append(d.log, fmt.Sprintf("%d rm f%d moved=%x", d.eng.Now(), t.id, math.Float64bits(t.c.Transferred())))
	case op < 9: // re-cap a live consumer (the SetLoss/Mathis path)
		t := d.live[d.rng.Intn(len(d.live))]
		var limit float64
		if d.rng.Intn(2) == 0 {
			limit = 10 + float64(d.rng.Intn(90))
		}
		t.c.SetLimit(limit)
	default: // capacity churn
		r := d.res[d.rng.Intn(len(d.res))]
		r.SetCapacity(100 + float64(d.rng.Intn(400)))
	}
	for _, t := range d.live {
		d.log = append(d.log, fmt.Sprintf("%d rate f%d %x", d.eng.Now(), t.id, math.Float64bits(t.c.Rate())))
	}
}

func (d *fluidChurn) render() []byte {
	var b bytes.Buffer
	for _, ln := range d.log {
		fmt.Fprintln(&b, ln)
	}
	fmt.Fprintf(&b, "live=%d\n", d.sys.Len())
	return b.Bytes()
}

// buildFluidChurn wires the scripted churn onto a fresh engine: a
// clustered resource set (so incremental mode sees many small
// components), a 500ms churn ticker, and the driver registered as a
// snapshot root.
func buildFluidChurn(seed int64, full bool) (*sim.Engine, *fluidChurn) {
	eng := sim.NewEngine(seed)
	sys := sim.NewFluidSystem(eng)
	sys.SetFullRecompute(full)
	d := &fluidChurn{eng: eng, sys: sys, rng: eng.ForkRand()}
	for i := 0; i < 12; i++ {
		d.res = append(d.res, sys.NewResource(fmt.Sprintf("r%d", i), 100+float64(50*(i%3))))
	}
	eng.SnapRoot("fluid.churn", d)
	eng.NewTicker(500*time.Millisecond, d.tick)
	return eng, d
}

// TestFluidIncrementalVsFull is the tentpole's differential gate: over a
// 20-seed churn grid, the dirty-set allocator must produce byte-identical
// rates (raw float bits), completion order, and virtual timestamps to a
// full recompute of every component on every change.
func TestFluidIncrementalVsFull(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 4
	}
	for _, seed := range snaptest.Seeds(1, n) {
		run := func(full bool) []byte {
			eng, d := buildFluidChurn(seed, full)
			eng.RunUntil(2 * time.Minute)
			return d.render()
		}
		inc, full := run(false), run(true)
		if !bytes.Equal(inc, full) {
			t.Fatalf("incremental vs full divergence at seed %d:\n%s", seed, snaptest.Describe(full, inc))
		}
	}
}

// TestForkVsColdFluid proves the allocator's new state — dense indices,
// admission sequence, epoch marks, and the reusable scratch slices — is
// all SnapRoot-reachable: a run forked mid-churn must be byte-identical
// to a cold one.
func TestForkVsColdFluid(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 4
	}
	snaptest.Scenario{
		Name: "fluid.churn",
		Build: func(seed int64) (*sim.Engine, func() []byte) {
			eng, d := buildFluidChurn(seed, false)
			return eng, d.render
		},
		WarmUntil: 30 * time.Second,
		Horizon:   2 * time.Minute,
	}.Run(t, snaptest.Seeds(1, n))
}

// TestFluidDirtySetBoundedByCluster pins the incremental allocator's
// saving as a count, not a timing: on a clustered topology (16 clusters
// of 4 resources, every consumer confined to one cluster) each add or
// remove re-fills at most the live consumers of the cluster it touched,
// where the full-recompute reference re-fills every live consumer.
func TestFluidDirtySetBoundedByCluster(t *testing.T) {
	const clusters, per, ops = 16, 4, 1000
	for _, full := range []bool{false, true} {
		eng := sim.NewEngine(1)
		sys := sim.NewFluidSystem(eng)
		sys.SetFullRecompute(full)
		res := make([]*sim.FluidResource, clusters*per)
		for j := range res {
			res[j] = sys.NewResource(fmt.Sprintf("r%d", j), 100)
		}
		type member struct {
			c       *sim.FluidConsumer
			cluster int
		}
		pop := make([]int, clusters) // live consumers per cluster
		check := func(op string, cl int) {
			t.Helper()
			got := sys.DirtyConsumers()
			if full && got != sys.Len() {
				t.Fatalf("full %s: re-filled %d consumers, want all %d live", op, got, sys.Len())
			}
			if !full && got > pop[cl] {
				t.Fatalf("incremental %s in cluster %d: re-filled %d consumers, cluster holds %d", op, cl, got, pop[cl])
			}
		}
		// Work far beyond the horizon: nothing completes, so every
		// reallocation is one this script asked for.
		add := func(cl, k int) member {
			c := &sim.FluidConsumer{Name: "f", Weight: 1 + float64(k%3)}
			pop[cl]++
			sys.Add(c, 1e12, res[cl*per+k%per], res[cl*per+(k+1)%per])
			check("add", cl)
			return member{c, cl}
		}
		var live []member
		for cl := 0; cl < clusters; cl++ {
			for k := 0; k < per; k++ {
				live = append(live, add(cl, k))
			}
		}
		for op := 0; op < ops; op++ {
			m := &live[op%len(live)]
			pop[m.cluster]--
			sys.Remove(m.c)
			check("remove", m.cluster)
			*m = add(op%clusters, op)
			eng.RunUntil(eng.Now() + time.Millisecond)
		}
	}
}
