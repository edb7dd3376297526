package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/rsl"
	"repro/internal/servicemgr"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// This file declares the extension experiments beyond the paper's explicit
// artifacts: E10 and E11 quantify §3.2's distribution claim, and three
// ablations isolate design choices DESIGN.md calls out (EASY backfill,
// mTCP-style pooling, and the MDS soft-state refresh period).

// ---- E10: points of presence vs co-allocation under failures ----------

// AvailGrid is E10's grid: the points-of-presence counts k, read off one
// failure trace of length Horizon.
type AvailGrid struct {
	Ks      []int
	Horizon time.Duration
}

// AvailRow is the two availabilities at one k.
type AvailRow struct {
	K     int     `col:"points of presence k"`
	AnyUp float64 `col:"service availability (any up)"`
	AllUp float64 `col:"co-allocation availability (all up)"`
}

// E10 quantifies §3.2's contrast: "for PlanetLab services, embracing
// resource distribution is an objective, while for grid applications,
// resource distribution is a necessary evil." Sites fail and recover
// independently (exponential MTBF/MTTR). A PlanetLab-style service with k
// points of presence is up while ANY of its k sites is up (availability
// rises with k); a co-allocated grid computation needs ALL k sites
// simultaneously (availability falls with k). Both curves come from the
// same failure trace.
var E10 = Experiment[AvailGrid, AvailRow]{
	Grid: AvailGrid{Ks: []int{1, 2, 3, 4, 6, 8}, Horizon: 90 * 24 * time.Hour},
	Run:  availability,
}

// availability runs E10's one failure trace; workers is unused.
func availability(seed int64, g AvailGrid, _ int) []AvailRow {
	const nSites, mtbf, mttr = 20, 72 * time.Hour, 4 * time.Hour

	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	var up []bool
	maxK := slices.Max(g.Ks)
	// anyUp[k-1] accumulates time with >=1 of the first k sites up;
	// allUp[k-1] time with all k up.
	anyUp := make([]time.Duration, maxK)
	allUp := make([]time.Duration, maxK)
	last := time.Duration(0)

	account := func() {
		now := eng.Now()
		dt := now - last
		last = now
		if dt <= 0 {
			return
		}
		upCount := 0
		for k := 0; k < maxK; k++ {
			if up[k] {
				upCount++
			}
			if upCount > 0 {
				anyUp[k] += dt
			}
			if upCount == k+1 {
				allUp[k] += dt
			}
		}
	}

	up = failureTrace(eng, rng, nSites, mtbf, mttr, func(int, []bool) { account() })
	eng.RunUntil(g.Horizon)
	account()

	rows := make([]AvailRow, len(g.Ks))
	for i, k := range g.Ks {
		rows[i] = AvailRow{k, anyUp[k-1].Seconds() / g.Horizon.Seconds(), allUp[k-1].Seconds() / g.Horizon.Seconds()}
	}
	return rows
}

// ---- Ablation A1: EASY backfill ----------------------------------------

// BackfillGrid is A1's grid: Jobs jobs on a Slots-slot machine.
type BackfillGrid struct{ Slots, Jobs int }

// BackfillRow is one scheduler's outcome.
type BackfillRow struct {
	Scheduler   string        `col:"scheduler"`
	MeanWait    time.Duration `col:"mean wait"`
	P95Wait     time.Duration `col:"p95 wait"`
	Makespan    time.Duration `col:"makespan"`
	Utilization float64       `col:"utilization"`
	Backfilled  int           `col:"backfilled"`
}

// A1 isolates the batch manager's backfill design choice: the same job
// stream through the same machine with backfill on and off. Expected:
// backfill cuts mean wait and lifts utilization without delaying any
// head-of-line job (EASY's guarantee). The job stream is generated once
// and only read by the two runs.
var A1 = Experiment[BackfillGrid, BackfillRow]{
	Title: "A1: EASY backfill vs pure FCFS (32 slots, 200 jobs):",
	Grid:  BackfillGrid{Slots: 32, Jobs: 200},
	Run: func(seed int64, g BackfillGrid, workers int) []BackfillRow {
		jobs := workload.GenerateGridJobs(rand.New(rand.NewSource(seed)), workload.GridJobConfig{
			MeanInterarrival: 5 * time.Minute,
			MedianRun:        time.Hour,
			RunSigma:         1.0,
			MaxCount:         g.Slots / 2,
			WallFactor:       2,
		}, g.Jobs)
		return each(2, workers, func(i int) BackfillRow { return backfillRow(seed, g.Slots, jobs, i == 1) })
	},
}

// backfillRow runs the job stream on a private engine and batch manager.
func backfillRow(seed int64, slots int, jobs []workload.GridJob, disable bool) BackfillRow {
	eng := sim.NewEngine(seed)
	bm := gram.NewBatchManager(eng, "batch", slots)
	bm.DisableBackfill = disable
	var done []*gram.Job
	for _, wj := range jobs {
		//gridlint:ignore snapcapture run-to-completion experiment harness on a local engine that is never snapshotted or forked
		eng.At(wj.Arrival, func() {
			spec, err := rsl.Parse(wj.RSL())
			if err != nil {
				panic(err)
			}
			req, _ := spec.Single()
			j := &gram.Job{ID: wj.ID, Req: req, Spec: gram.JobSpec{RSL: wj.RSL(), ActualRun: wj.Run}}
			if err := bm.Submit(j); err == nil {
				done = append(done, j)
			}
		})
	}
	eng.Run()
	var wait metrics.Sample
	var makespan time.Duration
	var work float64
	for _, j := range done {
		if j.State() != gram.Done {
			continue
		}
		wait.Add(j.WaitTime().Seconds())
		if j.Ended > makespan {
			makespan = j.Ended
		}
		work += float64(j.Count()) * (j.Ended - j.Started).Seconds()
	}
	name := "EASY backfill"
	if disable {
		name = "pure FCFS"
	}
	return BackfillRow{name, time.Duration(wait.Mean()) * time.Second, time.Duration(wait.Quantile(0.95)) * time.Second,
		makespan.Round(time.Minute), work / (float64(slots) * makespan.Seconds()), bm.BackfilledN}
}

// ---- Ablation A2: multipath pooling ------------------------------------

// PoolingRow is one splitting strategy's transfer.
type PoolingRow struct {
	Splitting  string        `col:"splitting"`
	Duration   time.Duration `col:"duration"`
	Throughput float64       `col:"throughput MB/s"`
}

// A2 isolates mTCP-style dynamic re-balancing: the same multipath transfer
// (the grid is its size in bytes) with a static byte split vs pooled work
// stealing, over asymmetric paths (the relay path has a quarter of the
// capacity). Static splitting strands bytes on the slow path; pooling
// finishes when the aggregate is done.
var A2 = Experiment[float64, PoolingRow]{
	Title: "A2: static vs pooled multipath split (400 MB, asymmetric paths):",
	Grid:  400e6,
	Run: func(seed int64, bytes float64, workers int) []PoolingRow {
		return each(2, workers, func(i int) PoolingRow { return poolingRow(seed, bytes, i == 1) })
	},
}

// poolingRow runs one transfer on a private engine and network.
func poolingRow(seed int64, bytes float64, pooled bool) PoolingRow {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 40, 0)
	net.AddSite("R", 20, 15)
	net.AddHost("src", "A", 1.25e7)
	net.AddHost("dst", "B", 1.25e7)
	net.AddHost("relay", "R", 0.3125e7) // quarter-capacity relay
	var result *simnet.Flow
	_, err := net.StartFlow("src", "dst", bytes, simnet.FlowOpts{
		Streams: 2,
		Paths:   [][]string{nil, {"relay"}},
		Pooled:  pooled,
	}, func(f *simnet.Flow) { result = f })
	if err != nil {
		panic(err)
	}
	eng.Run()
	name := "static split"
	if pooled {
		name = "pooled (mTCP-style)"
	}
	return PoolingRow{name, result.Duration().Round(time.Second), result.ThroughputBps() / 1e6}
}

// ---- Ablation A3: MDS refresh period -----------------------------------

// RefreshGrid is A3's grid: refresh periods for one GRIS of Resources
// resources.
type RefreshGrid struct {
	Periods   []time.Duration
	Resources int
}

// RefreshRow is one refresh period's freshness and traffic.
type RefreshRow struct {
	Period      time.Duration `col:"refresh period"`
	Staleness   time.Duration `col:"measured staleness"`
	MsgsPerHour float64       `col:"reg msgs/hour"`
}

// A3 sweeps the soft-state refresh period: freshness is paid for with
// registration traffic. Staleness is measured (not assumed) by querying
// the real index just before the next refresh lands.
var A3 = Experiment[RefreshGrid, RefreshRow]{
	Title: "A3: MDS soft-state refresh period (200 resources):",
	Grid: RefreshGrid{Resources: 200, Periods: []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
	}},
	Run: func(seed int64, g RefreshGrid, workers int) []RefreshRow {
		return each(len(g.Periods), workers, func(i int) RefreshRow { return refreshRow(seed, g.Periods[i], g.Resources) })
	},
}

// refreshRow measures one period on a private engine, network and index.
func refreshRow(seed int64, period time.Duration, nResources int) RefreshRow {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 30, 0)
	net.AddHost("idx", "A", 1e7)
	net.AddHost("src", "B", 1e7)
	idx := mds.NewGIIS(eng, net, "idx")
	g := mds.NewGRIS(eng, net, "src")
	for i := 0; i < nResources; i++ {
		name := fmt.Sprintf("r%03d", i)
		g.AddProviderInto(name, func(attrs map[string]string) { attrs["up"] = "1" })
	}
	g.StartPush("idx", period)
	// Measure just before the 4th refresh fires.
	eng.RunUntil(3*period - time.Second)
	stale := idx.Eval(mds.Query{}).MaxStale
	g.Stop()
	return RefreshRow{period, stale.Round(time.Second), float64(nResources) * float64(time.Hour) / float64(period)}
}

// ---- E11: managed service under churn ----------------------------------

// ManagedRow is one placement strategy's outcome.
type ManagedRow struct {
	Strategy  string  `col:"strategy"`
	Degraded  float64 `col:"degraded fraction"`
	Redeploys int     `col:"redeploys"`
}

// E11 runs the live counterpart of E10: a servicemgr-controlled service (k
// points of presence, redeploying via the SHARP broker on failure) against
// a statically placed one, under the same exponential site-failure trace
// (the grid is its length). The managed service converts PlanetLab's spare
// capacity into availability; the static one eats every outage.
var E11 = Experiment[time.Duration, ManagedRow]{
	Title: "E11: live managed service vs static placement (12 sites, k=3, 90 days):",
	Grid:  90 * 24 * time.Hour,
	Run:   managedAvailability,
}

// managedAvailability runs E11's one failure trace; workers is unused.
func managedAvailability(seed int64, horizon time.Duration, _ int) []ManagedRow {
	const nSites, target, mtbf, mttr = 12, 3, 48 * time.Hour, 6 * time.Hour

	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))

	names := make([]string, nSites)
	runtimes := make(map[string]*broker.SiteRuntime, nSites)
	for i := range names {
		s := fmt.Sprintf("p%02d", i)
		names[i] = s
		nm := capability.NewNodeManager(s, eng, rng, map[capability.ResourceType]float64{capability.CPU: 4})
		node := silk.NewNode(eng, s, silk.DefaultPlanetLabNode())
		auth := sharp.NewAuthority(eng, s, identity.NewPrincipal("auth@"+s, rng), nm,
			map[capability.ResourceType]float64{capability.CPU: 4})
		auth.OversellFactor = 1e6 // deep soft stock; conflicts only at redeem
		runtimes[s] = &broker.SiteRuntime{Authority: auth, NM: nm, Node: node}
	}
	dep := &broker.Deployer{Agent: sharp.NewAgent(identity.NewPrincipal("agent", rng)), Sites: runtimes}
	if err := dep.Stock(500, 0, horizon+time.Hour, names...); err != nil {
		panic(err)
	}
	sm := identity.NewPrincipal("sm", rng)
	mgr := servicemgr.New(eng, dep, sm, servicemgr.Config{
		Name:       "managed-svc",
		Target:     target,
		CPUPerSite: 1,
		Candidates: names,
		Lease:      horizon + time.Hour,
	})
	if err := mgr.Start(); err != nil {
		panic(err)
	}

	// Static placement on the first `target` sites: no redeploys.
	staticSites := map[string]bool{}
	for _, s := range names[:target] {
		staticSites[s] = true
	}
	staticDownN := 0 // how many of the static sites are currently down
	var staticDegraded, staticSince time.Duration

	failureTrace(eng, rng, nSites, mtbf, mttr, func(i int, up []bool) {
		site, now := names[i], eng.Now()
		if up[i] {
			// Site goes down.
			if staticSites[site] {
				if staticDownN == 0 {
					staticSince = now
				}
				staticDownN++
			}
			if mgr.Hosts(site) {
				mgr.SiteFailed(site)
			}
			return
		}
		// Site recovers.
		if staticSites[site] {
			staticDownN--
			if staticDownN == 0 {
				staticDegraded += now - staticSince
			}
		}
		mgr.SiteRecovered(site)
	})
	eng.RunUntil(horizon)
	if staticDownN > 0 {
		staticDegraded += eng.Now() - staticSince
	}
	mgr.Stop()

	return []ManagedRow{
		{fmt.Sprintf("managed (k=%d, redeploy)", target), mgr.DegradedTime.Seconds() / horizon.Seconds(), mgr.RedeployN},
		{fmt.Sprintf("static (k=%d, fixed sites)", target), staticDegraded.Seconds() / horizon.Seconds(), 0},
	}
}

// failureTrace fails and repairs n sites independently from time zero:
// each stays up for an exponential time of mean mtbf, then down for one of
// mean mttr. At each transition it calls flip with the site and every
// site's state just before the transition, then draws the site's next
// transition from rng. It returns that state, which the trace keeps
// updating as the engine runs.
func failureTrace(eng *sim.Engine, rng *rand.Rand, n int, mtbf, mttr time.Duration, flip func(site int, up []bool)) []bool {
	up := make([]bool, n)
	var next func(site int)
	next = func(site int) {
		flip(site, up)
		up[site] = !up[site]
		mean := mtbf
		if !up[site] {
			mean = mttr
		}
		eng.Schedule(workload.Exp(rng, mean), func() { next(site) })
	}
	for i := range up {
		up[i] = true
		eng.Schedule(workload.Exp(rng, mtbf), func() { next(i) })
	}
	return up
}
