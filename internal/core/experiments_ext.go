package core

import (
	"fmt"
	"math/rand"
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

// This file holds the extension experiments beyond the paper's explicit
// artifacts: E10 quantifies §3.2's distribution claim, and three
// ablations isolate design choices DESIGN.md calls out (EASY backfill,
// mTCP-style pooling, and the MDS soft-state refresh period).

// ---- E10: points of presence vs co-allocation under failures ----------

// RunAvailability quantifies §3.2's contrast: "for PlanetLab services,
// embracing resource distribution is an objective, while for grid
// applications, resource distribution is a necessary evil." Sites fail
// and recover independently (exponential MTBF/MTTR). A PlanetLab-style
// service with k points of presence is up while ANY of its k sites is up
// (availability rises with k); a co-allocated grid computation needs ALL
// k sites simultaneously (availability falls with k). Both curves come
// from the same failure trace.
func RunAvailability(seed int64, ks []int, horizon time.Duration) *metrics.Table {
	const nSites = 20
	mtbf := 72 * time.Hour
	mttr := 4 * time.Hour

	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	up := make([]bool, nSites)
	for i := range up {
		up[i] = true
	}

	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
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

	var flip func(site int)
	flip = func(site int) {
		account()
		up[site] = !up[site]
		mean := mtbf
		if !up[site] {
			mean = mttr
		}
		eng.Schedule(workload.Exp(rng, mean), func() { flip(site) })
	}
	for i := 0; i < nSites; i++ {
		i := i
		//gridlint:ignore snapcapture run-to-completion experiment harness on a local engine that is never snapshotted or forked
		eng.Schedule(workload.Exp(rng, mtbf), func() { flip(i) })
	}
	eng.RunUntil(horizon)
	account()

	t := metrics.NewTable("points of presence k", "service availability (any up)", "co-allocation availability (all up)")
	for _, k := range ks {
		t.AddRow(k, anyUp[k-1].Seconds()/horizon.Seconds(), allUp[k-1].Seconds()/horizon.Seconds())
	}
	return t
}

// ---- Ablation A1: EASY backfill ----------------------------------------

// RunBackfillAblation isolates the batch manager's backfill design
// choice: the same job stream through the same machine with backfill on
// and off. Expected: backfill cuts mean wait and lifts utilization
// without delaying any head-of-line job (EASY's guarantee).
func RunBackfillAblation(seed int64, slots, nJobs int) *metrics.Table {
	t := metrics.NewTable("scheduler", "mean wait", "p95 wait", "makespan", "utilization", "backfilled")
	rng := rand.New(rand.NewSource(seed))
	jobs := workload.GenerateGridJobs(rng, workload.GridJobConfig{
		MeanInterarrival: 5 * time.Minute,
		MedianRun:        time.Hour,
		RunSigma:         1.0,
		MaxCount:         slots / 2,
		WallFactor:       2,
	}, nJobs)

	for _, disable := range []bool{false, true} {
		eng := sim.NewEngine(seed)
		bm := gram.NewBatchManager(eng, "batch", slots)
		bm.DisableBackfill = disable
		var done []*gram.Job
		for _, wj := range jobs {
			wj := wj
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
		t.AddRow(name,
			(time.Duration(wait.Mean()) * time.Second).String(),
			(time.Duration(wait.Quantile(0.95)) * time.Second).String(),
			makespan.Round(time.Minute).String(),
			work/(float64(slots)*makespan.Seconds()),
			bm.BackfilledN)
	}
	return t
}

// ---- Ablation A2: multipath pooling ------------------------------------

// RunPoolingAblation isolates mTCP-style dynamic re-balancing: the same
// multipath transfer with a static byte split vs pooled work stealing,
// over asymmetric paths (the relay path has half the capacity). Static
// splitting strands bytes on the slow path; pooling finishes when the
// aggregate is done.
func RunPoolingAblation(seed int64, bytes float64) *metrics.Table {
	t := metrics.NewTable("splitting", "duration", "throughput MB/s")
	for _, pooled := range []bool{false, true} {
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
		t.AddRow(name, result.Duration().Round(time.Second).String(), result.ThroughputBps()/1e6)
	}
	return t
}

// ---- Ablation A3: MDS refresh period -----------------------------------

// RunTTLAblation sweeps the soft-state refresh period: freshness is paid
// for with registration traffic. Staleness is measured (not assumed) by
// querying the real index just before the next refresh lands.
func RunTTLAblation(seed int64, periods []time.Duration, nResources int) *metrics.Table {
	t := metrics.NewTable("refresh period", "measured staleness", "reg msgs/hour")
	for _, period := range periods {
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
		msgsPerHour := float64(nResources) * float64(time.Hour) / float64(period)
		t.AddRow(period.String(), stale.Round(time.Second).String(), msgsPerHour)
	}
	return t
}

// ---- E11: managed service under churn ----------------------------------

// RunManagedAvailability runs the live counterpart of E10: a
// servicemgr-controlled service (k points of presence, redeploying via
// the SHARP broker on failure) against a statically placed one, under
// the same exponential site-failure trace. The managed service converts
// PlanetLab's spare capacity into availability; the static one eats
// every outage.
func RunManagedAvailability(seed int64, target int, horizon time.Duration) *metrics.Table {
	const nSites = 12
	mtbf := 48 * time.Hour
	mttr := 6 * time.Hour

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
	staticDegraded := time.Duration(0)
	staticSince := time.Duration(0)

	up := make(map[string]bool, nSites)
	for _, s := range names {
		up[s] = true
	}
	var flip func(site string)
	flip = func(site string) {
		wasUp := up[site]
		up[site] = !wasUp
		now := eng.Now()
		if wasUp {
			// Site went down.
			if staticSites[site] {
				if staticDownN == 0 {
					staticSince = now
				}
				staticDownN++
			}
			for _, active := range mgr.ActiveSites() {
				if active == site {
					mgr.SiteFailed(site)
					break
				}
			}
			eng.Schedule(workload.Exp(rng, mttr), func() { flip(site) })
			return
		}
		// Site recovered.
		if staticSites[site] {
			staticDownN--
			if staticDownN == 0 {
				staticDegraded += now - staticSince
			}
		}
		mgr.SiteRecovered(site)
		eng.Schedule(workload.Exp(rng, mtbf), func() { flip(site) })
	}
	for _, s := range names {
		s := s
		//gridlint:ignore snapcapture run-to-completion experiment harness on a local engine that is never snapshotted or forked
		eng.Schedule(workload.Exp(rng, mtbf), func() { flip(s) })
	}
	eng.RunUntil(horizon)
	if staticDownN > 0 {
		staticDegraded += eng.Now() - staticSince
	}
	mgr.Stop()

	t := metrics.NewTable("strategy", "degraded fraction", "redeploys")
	t.AddRow(fmt.Sprintf("managed (k=%d, redeploy)", target),
		mgr.DegradedTime.Seconds()/horizon.Seconds(), mgr.RedeployN)
	t.AddRow(fmt.Sprintf("static (k=%d, fixed sites)", target),
		staticDegraded.Seconds()/horizon.Seconds(), 0)
	return t
}
