package core

import (
	"errors"
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
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// This file implements the quantified-claim experiments E3-E9 from
// DESIGN.md. Each returns a metrics.Table so cmd/gridlab and the bench
// harness print identical artifacts.

// ---- E3: deployment scale ---------------------------------------------

// RunScale sweeps federation size and reports per-stack control-plane
// cost and freshness: registration messages per refresh cycle, worst-case
// discovery staleness just before a refresh, end-to-end placement
// latency, and control messages per placement. The paper's scale context
// (§2.1/§2.2): GT at 20-50 sites heading for 100s; PlanetLab at 155
// sites heading for ~1000.
func RunScale(seed int64, siteCounts []int, workers int) *metrics.Table {
	return grid([]string{"sites", "stack", "reg msgs/cycle", "staleness", "setup latency", "msgs/op"},
		len(siteCounts), workers, func(i int) [][]any {
			return scaleRows(seed, siteCounts[i])
		})
}

// scaleRows computes the E3 table rows for one federation size. Each call
// owns a private engine and rng per stack, so grid points are independent
// and safe to fan out.
func scaleRows(seed int64, n int) [][]any {
	specs := make([]SiteSpec, n)
	for i := range specs {
		specs[i] = SiteSpec{
			Name:         fmt.Sprintf("s%04d", i),
			X:            float64(3 * ((i % 40) + 1)),
			Y:            float64(3 * (i / 40)),
			Nodes:        2,
			ClusterSlots: 8,
			Policy:       PlanetLabSitePolicy(), // both stacks admit all
		}
	}

	// Globus build: measure one refresh cycle, then one brokered job.
	fg := Build(StackGlobus, Config{Seed: seed, RefreshInterval: 2 * time.Minute}, specs)
	if scaleMidHook != nil {
		scaleMidHook(fg)
	}
	reg0 := fg.Index.RegisterN
	fg.Eng.RunUntil(fg.Eng.Now() + 2*time.Minute)
	regPerCycle := fg.Index.RegisterN - reg0
	fg.Eng.RunUntil(fg.Eng.Now() + 2*time.Minute - time.Second)
	stale := fg.Index.Eval(mds.Query{}).MaxStale
	user := fg.User("alice")
	proxy, err := user.Delegate("alice/p", fg.Eng.Now(), 12*time.Hour, nil, fg.Rng)
	if err != nil {
		panic(err)
	}
	msgs0 := fg.Net.Host("vo-broker").MsgsSent
	start := fg.Eng.Now()
	placedAt := start
	fg.Matchmaker.SubmitJob(proxy, gram.JobSpec{
		RSL: `&(executable=x)(count=1)(maxWallTime=60)`, ActualRun: time.Second,
	}, nil, func(broker.Placement, error) { placedAt = fg.Eng.Now() })
	fg.Eng.RunUntil(fg.Eng.Now() + 5*time.Minute)
	setupG := placedAt - start
	msgsG := fg.Net.Host("vo-broker").MsgsSent - msgs0
	rows := [][]any{{n, "globus", regPerCycle, stale.Round(time.Second).String(), setupG.Round(time.Millisecond).String(), msgsG}}

	// PlanetLab build: measure the sensor plane over one refresh
	// cycle, then deploy a 5-point-of-presence slice.
	fp := Build(StackPlanetLab, Config{Seed: seed, RefreshInterval: 2 * time.Minute}, specs)
	if scaleMidHook != nil {
		scaleMidHook(fp)
	}
	regP0 := fp.Comon.RegisterN
	fp.Eng.RunUntil(fp.Eng.Now() + 2*time.Minute)
	regPPerCycle := fp.Comon.RegisterN - regP0
	fp.Eng.RunUntil(fp.Eng.Now() + 2*time.Minute - time.Second)
	staleP := fp.Comon.Eval(mds.Query{}).MaxStale
	k := 5
	if n < k {
		k = n
	}
	sites := make([]string, k)
	for i := range sites {
		sites[i] = specs[i].Name
	}
	now := fp.Eng.Now()
	if err := fp.Deployer.Stock(1, now, now+time.Hour, sites...); err != nil {
		panic(err)
	}
	hops0 := fp.Deployer.Hops
	sm := identity.NewPrincipal("sm", fp.Rng)
	if _, err := fp.Deployer.DeploySliceAtomic("svc", sm, 0.5, now, now+time.Hour, sites); err != nil {
		return append(rows, []any{n, "planetlab", n, "-", "deploy failed", 0})
	}
	hops := fp.Deployer.Hops - hops0
	// The SHARP flow here is in-process; estimate wide-area latency
	// as hop count × mean broker↔site one-way delay (documented in
	// EXPERIMENTS.md).
	var rttSum time.Duration
	for _, s := range sites {
		rttSum += fp.Net.RTT("vo-broker", "gk-"+s)
	}
	est := time.Duration(float64(rttSum) / float64(len(sites)) / 2 * float64(hops))
	return append(rows, []any{n, "planetlab", regPPerCycle, staleP.Round(time.Second).String(), est.Round(time.Millisecond).String(), hops})
}

// scaleMidHook, when set, runs on each freshly built federation inside
// scaleRows (E3) — the snapshot-purity gate uses it to take mid-scenario
// engine snapshots. Always nil outside tests.
var scaleMidHook func(f *Federation)

// ---- E4: proxy-certificate lifetime -----------------------------------

// RunProxyLifetime quantifies §4.2.1's tradeoff: "Choosing the lifetime
// of proxy certificates requires a compromise between allowing long-term
// jobs to continue to run as authenticated entities and the need to
// limit the damage in the event a proxy is compromised." For each
// lifetime, a lognormal job population (median 2h) runs through real
// chain validation at completion time; rows report the authentication
// failure rate and the mean abuse window a stolen proxy would grant. The
// job population is generated once, before the fan-out, and only read by
// the grid points.
func RunProxyLifetime(seed int64, lifetimes []time.Duration, nJobs, workers int) *metrics.Table {
	jobs := proxyJobs(seed, nJobs)
	return grid([]string{"proxy lifetime", "job auth-failure rate", "mean abuse window", "tradeoff cost"},
		len(lifetimes), workers, func(i int) [][]any {
			return [][]any{proxyLifetimeRow(seed, jobs, lifetimes[i])}
		})
}

// proxyJobs generates the shared job population for E4. The slice is
// read-only across grid points; each lifetime forks its own prng.
func proxyJobs(seed int64, nJobs int) []workload.GridJob {
	rng := rand.New(rand.NewSource(seed))
	return workload.GenerateGridJobs(rng, workload.GridJobConfig{
		MeanInterarrival: time.Minute,
		MedianRun:        2 * time.Hour,
		RunSigma:         1.0,
		MaxCount:         1,
		WallFactor:       1.5,
	}, nJobs)
}

// proxyLifetimeRow computes one E4 row: all state (CA, principals, prng)
// is private to the call; jobs is only read.
func proxyLifetimeRow(seed int64, jobs []workload.GridJob, life time.Duration) []any {
	prng := rand.New(rand.NewSource(seed + int64(life)))
	ca := identity.NewCA("ca", 1e6*time.Hour, prng)
	verifier := identity.NewVerifier(ca)
	userP := identity.NewPrincipal("user", prng)
	user := identity.UserCredential(userP, ca.IssueUser(userP, 0, 1e5*time.Hour))

	failures := 0
	for _, j := range jobs {
		proxy, err := user.Delegate("user/proxy", j.Arrival, life, nil, prng)
		if err != nil {
			failures++
			continue
		}
		// The job manager validates the proxy when the job completes
		// (stage-out); an expired proxy fails the job.
		if _, err := verifier.Validate(proxy, j.Arrival+j.Run); err != nil {
			if !errors.Is(err, identity.ErrExpired) {
				panic(err) // only expiry is expected here
			}
			failures++
		}
	}
	failRate := float64(failures) / float64(len(jobs))
	// A proxy stolen uniformly at random during its validity remains
	// abusable for half its lifetime in expectation.
	meanAbuse := life / 2
	// One scalarization makes the crossover visible: failure rate
	// plus abuse window normalized to a 64h horizon.
	cost := failRate + meanAbuse.Hours()/64
	return []any{life.String(), failRate, meanAbuse.String(), cost}
}

// ---- E5: delegation styles --------------------------------------------

// RunDelegation compares the two §4.2 brokering styles under site-policy
// churn: before each placement every site flips into refusing the user
// with probability churn (and heals otherwise). Identity-delegation
// brokering re-authenticates on every submission, so churn bites
// immediately; usage delegation rides bearer tickets acquired before the
// churn, so outstanding claims keep redeeming. The blast-radius columns
// quantify what a compromised broker yields under each style.
func RunDelegation(seed int64, nSites, nOps int, churn float64) *metrics.Table {
	t := metrics.NewTable("style", "success rate", "mean hops/op", "identities exposed", "resource exposed (cpu)")
	specs := make([]SiteSpec, nSites)
	for i := range specs {
		specs[i] = SiteSpec{
			Name: fmt.Sprintf("s%02d", i), X: float64(5 * (i + 1)), Y: 10,
			Nodes: 2, ClusterSlots: 4, Policy: PlanetLabSitePolicy(),
		}
	}

	// Identity delegation (Globus). Pushers stay live: the experiment
	// advances virtual time past the record TTL between operations.
	fg := Build(StackGlobus, Config{Seed: seed}, specs)
	user := fg.User("alice")
	churnRng := rand.New(rand.NewSource(seed + 1))
	okG := 0
	hops0 := fg.Matchmaker.Hops
	for op := 0; op < nOps; op++ {
		for _, s := range fg.JoinedSites() {
			if churnRng.Float64() < churn {
				s.Gridmap.Blacklist("alice")
			} else {
				s.Gridmap.Unblacklist("alice")
			}
		}
		proxy, err := user.Delegate("alice/p", fg.Eng.Now(), 12*time.Hour, nil, fg.Rng)
		if err != nil {
			panic(err)
		}
		done := false
		var subErr error
		fg.Matchmaker.SubmitJob(proxy, gram.JobSpec{
			RSL: `&(executable=x)(count=1)(maxWallTime=60)`, ActualRun: time.Second,
		}, nil, func(_ broker.Placement, e error) { done, subErr = true, e })
		fg.Eng.RunUntil(fg.Eng.Now() + 10*time.Minute)
		if done && subErr == nil {
			okG++
		}
	}
	brG := broker.MatchmakerBlastRadius(fg.Matchmaker)
	t.AddRow("identity-delegation (globus)",
		float64(okG)/float64(nOps),
		float64(fg.Matchmaker.Hops-hops0)/float64(nOps),
		brG.IdentitiesExposed, 0.0)

	// Usage delegation (PlanetLab): tickets stocked before churn begins.
	fp := Build(StackPlanetLab, Config{Seed: seed, StopPushers: true}, specs)
	now := fp.Eng.Now()
	siteNames := make([]string, len(specs))
	for i := range specs {
		siteNames[i] = specs[i].Name
	}
	// Stock exactly what the op stream will consume (tickets are one-shot)
	// plus one op of slack, staying inside each authority's issue budget.
	perSite := 0.25 * (float64(nOps)/float64(nSites) + 1)
	if err := fp.Deployer.Stock(perSite, now, now+1000*time.Hour, siteNames...); err != nil {
		panic(err)
	}
	okP := 0
	hopsP0 := fp.Deployer.Hops
	for op := 0; op < nOps; op++ {
		// PlanetLab churn hits new issuance, not outstanding bearer
		// tickets: redemption of stocked tickets is unaffected — the
		// structural property being measured.
		sm := identity.NewPrincipal(fmt.Sprintf("sm%d", op), fp.Rng)
		site := siteNames[op%len(siteNames)]
		slice, err := fp.Deployer.DeploySliceAtomic(fmt.Sprintf("svc%d", op), sm, 0.25, now, now+1000*time.Hour, []string{site})
		if err == nil {
			okP++
			slice.StopAll()
		}
	}
	brP := broker.DeployerBlastRadius(fp.Deployer)
	t.AddRow("usage-delegation (planetlab)",
		float64(okP)/float64(nOps),
		float64(fp.Deployer.Hops-hopsP0)/float64(nOps),
		0, brP.ResourceExposed)
	return t
}

// ---- E6: allocation disciplines ---------------------------------------

// RunAllocation reproduces §4.2.2's observation: "most resources
// allocations are 'best-effort' and resources that cannot be shared
// (e.g., network ports) are allocated on a first-come-first-served
// basis." A Zipf-popular service population lands on a node pool under
// two disciplines; rows report port-conflict rate, admission failures,
// CPU utilization, and Jain fairness of achieved/demanded CPU. The
// service population is generated once and only read by the grid points.
func RunAllocation(seed int64, nNodes, nServices, workers int) *metrics.Table {
	baseRng := rand.New(rand.NewSource(seed))
	svcs := workload.GenerateNetServices(baseRng, workload.DefaultNetServices(), nServices)
	return grid([]string{"discipline", "port conflict rate", "admission fail rate", "cpu utilization", "jain fairness"},
		len(allocationDisciplines), workers, func(i int) [][]any {
			return [][]any{allocationRow(seed, nNodes, nServices, svcs, allocationDisciplines[i])}
		})
}

// allocationDisciplines is the E6 grid axis, in output order.
var allocationDisciplines = []string{"best-effort", "reserved"}

// allocationRow computes one E6 row: the service population svcs is
// read-only; the engine, nodes, and managers are private to the call.
func allocationRow(seed int64, nNodes, nServices int, svcs []workload.NetService, discipline string) []any {
	eng := sim.NewEngine(seed)
	spec := silk.DefaultPlanetLabNode()
	nodes := make([]*silk.Node, nNodes)
	nms := make([]*capability.NodeManager, nNodes)
	for i := range nodes {
		nodes[i] = silk.NewNode(eng, fmt.Sprintf("n%02d", i), spec)
		nms[i] = capability.NewNodeManager(nodes[i].Name, eng, rand.New(rand.NewSource(seed+int64(i))),
			map[capability.ResourceType]float64{capability.CPU: spec.Cores})
	}
	portConflicts := 0
	admissionFails := 0
	admitted := make([]bool, nServices)
	bestEffortPerNode := make([]int, nNodes)

	for i, svc := range svcs {
		nodeIdx := i % nNodes
		nm := nms[nodeIdx]
		// Port claim: FCFS under both disciplines.
		if _, err := nm.Mint(capability.MintRequest{
			Type: capability.Port, PortNum: svc.Port,
			NotAfter: 1000 * time.Hour,
		}); err != nil {
			portConflicts++
		}
		switch discipline {
		case "best-effort":
			if _, err := nodes[nodeIdx].NewContext(svc.ID, silk.ContextSpec{CPUShares: 1}); err != nil {
				admissionFails++
				continue
			}
			admitted[i] = true
			bestEffortPerNode[nodeIdx]++
		case "reserved":
			if _, err := nm.Mint(capability.MintRequest{
				Type: capability.CPU, Amount: svc.CPUPerSite, Dedicated: true,
				NotAfter: 1000 * time.Hour,
			}); err != nil {
				admissionFails++
				continue
			}
			if _, err := nodes[nodeIdx].NewContext(svc.ID, silk.ContextSpec{DedicatedCores: svc.CPUPerSite}); err != nil {
				admissionFails++
				continue
			}
			admitted[i] = true
		}
	}

	// Steady-state achieved CPU: best-effort contexts split the
	// shared capacity equally but never take more than demand;
	// reserved contexts hold exactly their demand.
	totalUsed := 0.0
	ratios := make([]float64, nServices)
	for i, svc := range svcs {
		if !admitted[i] {
			continue
		}
		nodeIdx := i % nNodes
		achieved := svc.CPUPerSite
		if discipline == "best-effort" {
			share := spec.Cores / float64(bestEffortPerNode[nodeIdx])
			if share < achieved {
				achieved = share
			}
		}
		totalUsed += achieved
		ratios[i] = achieved / svc.CPUPerSite
	}
	capacity := float64(nNodes) * spec.Cores
	return []any{discipline,
		float64(portConflicts) / float64(nServices),
		float64(admissionFails) / float64(nServices),
		totalUsed / capacity,
		metrics.Jain(ratios)}
}

// ---- E7: heterogeneity glue -------------------------------------------

// RunHeterogeneity quantifies §4.1: GT's "glue" interposes translation
// over h distinct local-manager dialects, while PlanetLab "does not need
// to build the 'glue' level". Rows report translation operations per job
// and the fraction of failures that lose fidelity in back-translation
// (h=0 is the PlanetLab uniform interface).
func RunHeterogeneity(seed int64, dialectCounts []int, nJobs, workers int) *metrics.Table {
	return grid([]string{"dialects", "translate ops/job", "opaque error fraction", "jobs completed"},
		len(dialectCounts), workers, func(i int) [][]any {
			return [][]any{heterogeneityRow(seed, dialectCounts[i], nJobs)}
		})
}

// heterogeneityRow computes one E7 row; engine, managers, rng, and job
// stream are all private to the call.
func heterogeneityRow(seed int64, h, nJobs int) []any {
	eng := sim.NewEngine(seed)
	var managers []*gram.Glue
	if h == 0 {
		managers = append(managers, gram.NewGlue(gram.NewBatchManager(eng, "uniform", 8), gram.CanonicalDialect))
	} else {
		for i, d := range gram.StandardDialects(h) {
			managers = append(managers, gram.NewGlue(gram.NewBatchManager(eng, fmt.Sprintf("lm%d", i), 8), d))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := workload.GenerateGridJobs(rng, workload.GridJobConfig{
		MeanInterarrival: time.Minute, MedianRun: 10 * time.Minute,
		RunSigma: 0.5, MaxCount: 8, WallFactor: 2,
	}, nJobs)
	errsTotal, errsOpaque := 0, 0
	var submitted []*gram.Job
	for i, wj := range jobs {
		g := managers[i%len(managers)]
		spec, err := rsl.Parse(wj.RSL())
		if err != nil {
			panic(err)
		}
		req, err := spec.Single()
		if err != nil {
			panic(err)
		}
		// Every 7th job is malformed (missing wall time) to probe
		// error-translation fidelity.
		if i%7 == 3 {
			req = stripWall(req)
		}
		job := &gram.Job{ID: wj.ID, Req: req, Spec: gram.JobSpec{RSL: wj.RSL(), ActualRun: wj.Run}}
		if err := g.Submit(job); err != nil {
			errsTotal++
			if errors.Is(err, gram.ErrOpaqueLocal) {
				errsOpaque++
			}
			continue
		}
		submitted = append(submitted, job)
	}
	eng.Run()
	done := 0
	for _, j := range submitted {
		if j.State() == gram.Done {
			done++
		}
	}
	ops := 0
	for _, g := range managers {
		ops += g.TranslateOps
	}
	opaqueFrac := 0.0
	if errsTotal > 0 {
		opaqueFrac = float64(errsOpaque) / float64(errsTotal)
	}
	return []any{h, float64(ops) / float64(nJobs), opaqueFrac, done}
}

func stripWall(r rsl.Request) rsl.Request {
	out := rsl.Request{}
	for _, rel := range r.Relations {
		if rel.Attr == "maxWallTime" {
			continue
		}
		out.Relations = append(out.Relations, rel)
	}
	return out
}

// ---- E8: data-grid transfers ------------------------------------------

// RunDataGrid reproduces the §5 scenario quantitatively: striped
// GridFTP-style transfers with and without a PlanetLab multipath overlay,
// across loss rates. The expected shape: striping multiplies
// loss-limited throughput; the overlay wins once the direct path is
// lossy. The (loss × stripe × path) grid is flattened loss-major.
func RunDataGrid(seed int64, bytes float64, losses []float64, stripes []int, workers int) *metrics.Table {
	overlays := []bool{false, true}
	return grid([]string{"loss", "streams", "path", "throughput MB/s"},
		len(losses)*len(stripes)*len(overlays), workers, func(i int) [][]any {
			loss := losses[i/(len(stripes)*len(overlays))]
			k := stripes[(i/len(overlays))%len(stripes)]
			return [][]any{dataGridRow(seed, bytes, loss, k, overlays[i%len(overlays)])}
		})
}

// dataGridRow computes one E8 cell (loss × stripe × path choice) on a
// private engine and network.
func dataGridRow(seed int64, bytes, loss float64, k int, overlay bool) []any {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 40, 0)
	net.AddSite("R1", 20, 15)
	net.AddSite("R2", 20, -15)
	net.AddHost("src", "A", 1.25e7)
	net.AddHost("dst", "B", 1.25e7)
	net.AddHost("r1", "R1", 1.25e7)
	net.AddHost("r2", "R2", 1.25e7)
	net.SetLoss("A", "B", loss)
	opts := simnet.FlowOpts{Streams: k}
	pathName := "direct"
	if overlay {
		opts.Paths = [][]string{nil, {"r1"}, {"r2"}}
		opts.Pooled = true
		if opts.Streams < 3 {
			opts.Streams = 3
		}
		pathName = "multipath"
	}
	var result *simnet.Flow
	if _, err := net.StartFlow("src", "dst", bytes, opts, func(f *simnet.Flow) { result = f }); err != nil {
		return []any{loss, k, pathName, "error"}
	}
	eng.Run()
	if result == nil {
		return []any{loss, k, pathName, "incomplete"}
	}
	return []any{loss, k, pathName, result.ThroughputBps() / 1e6}
}

// ---- E9: SHARP oversubscription ---------------------------------------

// RunOversub sweeps the authority's oversell factor: soft-claim issuance
// rises with the factor and the predicted conflicts surface at redeem
// time. Shape: utilization climbs to 1.0 at factor >= 1; the rejection
// rate grows past it.
func RunOversub(seed int64, factors []float64, workers int) *metrics.Table {
	return grid([]string{"oversell factor", "tickets issued", "redeems ok", "conflicts", "utilization", "conflict rate"},
		len(factors), workers, func(i int) [][]any {
			return [][]any{oversubRow(seed, factors[i])}
		})
}

// oversubRow computes one E9 row on a private engine, rng, and authority.
func oversubRow(seed int64, factor float64) []any {
	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	nm := capability.NewNodeManager("S", eng, rng, map[capability.ResourceType]float64{capability.CPU: 100})
	auth := sharp.NewAuthority(eng, "S", identity.NewPrincipal("auth", rng), nm,
		map[capability.ResourceType]float64{capability.CPU: 100})
	auth.OversellFactor = factor
	agent := sharp.NewAgent(identity.NewPrincipal("agent", rng))
	var tickets []*sharp.Ticket
	for {
		tk, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 5, 0, time.Hour)
		if err != nil {
			break
		}
		tickets = append(tickets, tk)
	}
	ok, conflicts := 0, 0
	leased := 0.0
	for _, tk := range tickets {
		lease, err := auth.Redeem(tk)
		if err != nil {
			conflicts++
			continue
		}
		ok++
		leased += lease.Amount
	}
	return []any{factor, len(tickets), ok, conflicts, leased / 100, float64(conflicts) / float64(len(tickets))}
}
