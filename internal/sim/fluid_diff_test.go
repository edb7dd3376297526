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

	regime churnRegime
	// checkFills holds every fill to the reference (TestFillMatchesReference):
	// mismatch keeps the first divergence, fills and cappedOut count the
	// fills checked and those whose prune left no resource.
	checkFills       bool
	mismatch         error
	fills, cappedOut int
}

// churnRegime selects what the churn draws limits, weights, work and
// capacities from, i.e. which rounds the progressive filling is made of.
type churnRegime int

const (
	// churnMixed: three consumers in ten capped, the rest sharing links a
	// few at a time — resource saturations and cap rounds interleaved.
	churnMixed churnRegime = iota
	// churnCapBound is CDN-shaped: every consumer capped far below its fair
	// share, so no resource ever saturates.
	churnCapBound
	// churnEdges draws the values the prune must not mishandle: 0 and +Inf
	// capacities, 0 and +Inf limits, limits and weights whose ratios tie
	// (25/1 = 50/2 = 100/4), and capacities within 1e-12 of the sum of the
	// caps crossing them, where the last round is a tie the resource wins.
	churnEdges
)

// fluidTracked pairs a consumer with its id so completions can log a
// stable name and drop the entry from the live set.
type fluidTracked struct {
	c  *sim.FluidConsumer
	id int
	d  *fluidChurn
	rs []*sim.FluidResource
}

// checkFill compares the fill the latest change ran with the reference.
func (d *fluidChurn) checkFill() {
	if !d.checkFills || d.mismatch != nil {
		return
	}
	d.fills++
	if len(d.sys.TightResources()) == 0 {
		d.cappedOut++
	}
	if err := d.sys.CheckLastFill(); err != nil {
		d.mismatch = fmt.Errorf("t=%v op %d: %w", d.eng.Now(), d.seq, err)
	}
}

// addLimit, addWeight, addWork, recapLimit and newCapacity are the
// regime's draws; churnMixed's are the original script's, call for call.
func (d *fluidChurn) addLimit() float64 {
	switch d.regime {
	case churnCapBound:
		return float64(1+d.rng.Intn(8)) / 4
	case churnEdges:
		return []float64{0, 25, 50, 100, math.Inf(1), 0.1, 0.7, 33.3}[d.rng.Intn(8)]
	}
	if d.rng.Intn(10) < 3 {
		return 20 + float64(d.rng.Intn(80))
	}
	return 0
}

func (d *fluidChurn) addWeight() float64 {
	if d.regime == churnEdges {
		return []float64{1, 2, 4, 3}[d.rng.Intn(4)]
	}
	return float64(1 + d.rng.Intn(4))
}

func (d *fluidChurn) addWork() float64 {
	work := 1e5 + float64(d.rng.Intn(900_000))
	switch d.regime { // small enough to complete inside the horizon
	case churnCapBound:
		work /= 1e4
	case churnEdges:
		work /= 1e3
	}
	return work
}

func (d *fluidChurn) recapLimit() float64 {
	if d.regime != churnMixed {
		return d.addLimit()
	}
	if d.rng.Intn(2) == 0 {
		return 10 + float64(d.rng.Intn(90))
	}
	return 0
}

func (d *fluidChurn) newCapacity(r *sim.FluidResource) float64 {
	if d.regime == churnEdges {
		switch k := d.rng.Intn(6); k {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		case 2, 3, 4:
			// The float sum of the caps crossing r, in admission order, a
			// hair under, at, or a hair over: the caps fit (or all but),
			// but not by the margin the prune asks for.
			sum := 0.0
			for _, t := range d.live {
				for _, tr := range t.rs {
					if tr == r {
						sum += t.c.Limit
					}
				}
			}
			if sum > 0 && !math.IsInf(sum, 1) {
				return sum * (1 + float64(k-3)*1e-12)
			}
		}
		return 40 + float64(d.rng.Intn(120))
	}
	return 100 + float64(d.rng.Intn(400))
}

func (t *fluidTracked) done() {
	d := t.d
	d.checkFill()
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
		work := d.addWork()
		cl := d.rng.Intn(clusters)
		rs := []*sim.FluidResource{d.res[cl*perCluster+d.rng.Intn(perCluster)]}
		switch d.rng.Intn(10) {
		case 0: // cross-cluster path: merges two components transitively
			cl2 := (cl + 1 + d.rng.Intn(clusters-1)) % clusters
			rs = append(rs, d.res[cl2*perCluster+d.rng.Intn(perCluster)])
		case 1, 2: // second hop within the cluster
			rs = append(rs, d.res[cl*perCluster+d.rng.Intn(perCluster)])
		}
		limit := d.addLimit() // drawn before the weight, as the script always did
		t.c = &sim.FluidConsumer{
			Name:   fmt.Sprintf("f%d", d.seq),
			Weight: d.addWeight(),
			Limit:  limit,
			OnDone: t.done,
		}
		t.rs = rs
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
		t.c.SetLimit(d.recapLimit())
	default: // capacity churn
		r := d.res[d.rng.Intn(len(d.res))]
		r.SetCapacity(d.newCapacity(r))
	}
	d.checkFill()
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

// TestFillMatchesReference holds the slack-pruning fill to the allocator
// it replaced: under every regime, every fill — the ones the script asks
// for and the ones completions trigger — must give each consumer of its
// dirty set the rate the unpruned progressive filling gives it, bit for
// bit. The regime counts make sure each one exercises what it is named
// for: the cap-bound churn never leaves a resource to fill over, the other
// two mostly do.
func TestFillMatchesReference(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 4
	}
	for _, tc := range []struct {
		name   string
		regime churnRegime
	}{{"mixed", churnMixed}, {"cap-bound", churnCapBound}, {"edges", churnEdges}} {
		fills, cappedOut := 0, 0
		for _, full := range []bool{false, true} {
			for _, seed := range snaptest.Seeds(1, n) {
				eng, d := buildFluidChurn(seed, full)
				d.regime, d.checkFills = tc.regime, true
				eng.RunUntil(2 * time.Minute)
				if d.mismatch != nil {
					t.Fatalf("%s regime, seed %d, full=%v: %v", tc.name, seed, full, d.mismatch)
				}
				fills += d.fills
				cappedOut += d.cappedOut
			}
		}
		t.Logf("%s: %d fills, %d with no resource left after the prune", tc.name, fills, cappedOut)
		switch {
		case fills < 200*n:
			t.Errorf("%s: only %d fills checked", tc.name, fills)
		case tc.regime == churnCapBound && cappedOut != fills:
			t.Errorf("cap-bound: %d of %d fills kept a resource; the regime is meant to keep none", fills-cappedOut, fills)
		case tc.regime != churnCapBound && cappedOut > fills/2:
			t.Errorf("%s: %d of %d fills kept no resource; the regime is meant to contend", tc.name, cappedOut, fills)
		}
	}
	nearFitSweep(t)
}

// nearFitSweep is the directed half of TestFillMatchesReference: one
// resource under one to four capped consumers whose capacity is set to the
// float sum of their caps, one ulp to either side of it, and 1e-12 of it
// to either side. The caps fit, or all but, yet not by the 1e-9 margin: the
// prune must keep the resource, because the last round is then a tie (or a
// near-tie) that the resource wins, and the rates it hands out are a few
// ulps off the Limits. The churn regimes reach such a capacity too rarely
// to hold the margin on their own.
func nearFitSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	limits := []float64{25, 50, 100, 0.1, 0.7, 33.3}
	offLimit := 0
	for it := 0; it < 4000; it++ {
		sys := sim.NewFluidSystem(sim.NewEngine(1))
		r := sys.NewResource("r", 1e9)
		var cs []*sim.FluidConsumer
		sum := 0.0
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			c := &sim.FluidConsumer{Name: fmt.Sprintf("c%d", i), Weight: float64(1 + rng.Intn(4)), Limit: limits[rng.Intn(len(limits))]}
			cs = append(cs, sys.Add(c, 1e12, r))
			sum += c.Limit
		}
		for _, capacity := range []float64{
			sum, math.Nextafter(sum, 0), math.Nextafter(sum, math.Inf(1)), sum * (1 - 1e-12), sum * (1 + 1e-12),
		} {
			r.SetCapacity(capacity)
			if err := sys.CheckLastFill(); err != nil {
				t.Fatalf("near fit %d, capacity %v for caps summing to %v: %v", it, capacity, sum, err)
			}
			if tight := sys.TightResources(); len(tight) != 1 {
				t.Fatalf("near fit %d: capacity %v for caps summing to %v was pruned", it, capacity, sum)
			}
			for _, c := range cs {
				if capacity >= sum && c.Rate() != c.Limit {
					offLimit++
					break
				}
			}
		}
	}
	if offLimit == 0 {
		t.Error("near fit: no case where the caps fit and a rate still left its Limit; the sweep no longer holds the margin")
	}
}

// TestCapBoundComponentSkipsFilling pins the prune's saving as a count,
// not a timing: N capped consumers over a hub and N/4 spokes whose caps
// fit form one component of N consumers, and after every add and remove
// the fill keeps no resource to iterate over and hands every consumer its
// Limit. Raising one cap past its spoke's capacity brings back exactly
// that spoke, and only its consumers leave their Limits.
func TestCapBoundComponentSkipsFilling(t *testing.T) {
	for _, n := range []int{16, 256} {
		eng := sim.NewEngine(1)
		sys := sim.NewFluidSystem(eng)
		hub := sys.NewResource("hub", float64(4*n))
		spokes := make([]*sim.FluidResource, n/4)
		for i := range spokes {
			spokes[i] = sys.NewResource(fmt.Sprintf("spoke%d", i), 10)
		}
		type member struct {
			c     *sim.FluidConsumer
			spoke *sim.FluidResource
		}
		var live []member
		check := func(op string) {
			t.Helper()
			if got := sys.DirtyConsumers(); got != len(live) {
				t.Fatalf("n=%d %s: filled %d consumers, want the whole component of %d", n, op, got, len(live))
			}
			if tight := sys.TightResources(); len(tight) != 0 {
				t.Fatalf("n=%d %s: %d resources survived the prune (first %s), want 0", n, op, len(tight), tight[0].Name)
			}
			for _, m := range live {
				if m.c.Rate() != m.c.Limit {
					t.Fatalf("n=%d %s: %s rate %v, want its limit %v", n, op, m.c.Name, m.c.Rate(), m.c.Limit)
				}
			}
		}
		// Four consumers a spoke at 1 or 1.5 each fit its 10, and all n fit
		// the hub's 4n. Work far beyond the horizon: nothing completes.
		add := func(i int) {
			m := member{
				c:     &sim.FluidConsumer{Name: fmt.Sprintf("f%d", i), Weight: 1 + float64(i%3), Limit: 1 + float64(i%2)/2},
				spoke: spokes[i%len(spokes)],
			}
			live = append(live, m)
			sys.Add(m.c, 1e12, hub, m.spoke)
			check("add")
		}
		for i := 0; i < n; i++ {
			add(i)
		}
		for i := 0; i < 2*n; i++ {
			sys.Remove(live[0].c)
			live = live[1:]
			check("remove")
			add(n + i)
			eng.RunUntil(eng.Now() + time.Millisecond)
		}

		// One cap raised past its spoke's capacity: that spoke, and nothing
		// else, is filled over, and only consumers on it can leave their cap.
		big := live[0]
		big.c.SetLimit(20)
		if tight := sys.TightResources(); len(tight) != 1 || tight[0] != big.spoke {
			t.Fatalf("n=%d: after overflowing %s the prune kept %v", n, big.spoke.Name, tight)
		}
		if big.c.Rate() >= 10 || big.c.Rate() <= 0 {
			t.Errorf("n=%d: %s rate %v on a spoke of 10 shared four ways", n, big.c.Name, big.c.Rate())
		}
		for _, m := range live {
			if m.spoke != big.spoke && m.c.Rate() != m.c.Limit {
				t.Errorf("n=%d: %s on %s left its limit: rate %v, limit %v", n, m.c.Name, m.spoke.Name, m.c.Rate(), m.c.Limit)
			}
		}
	}
}
