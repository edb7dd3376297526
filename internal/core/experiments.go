package core

import (
	"errors"
	"fmt"
	"io"
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
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// This file declares the quantified-claim experiments E3-E9 from
// DESIGN.md, each one Experiment that gridlab, the tests and the benches
// run alike.

// Experiment is one table experiment, declared once: the grid gridlab
// runs, the typed rows Run computes at any grid, and the one path that
// prints them. G is the grid's type and R the row's.
type Experiment[G, R any] struct {
	// Title heads the report; "" prints none.
	Title string
	// Grid is the default grid: what gridlab runs and results_all.txt holds.
	Grid G
	// Run computes the rows at grid g, fanning independent grid points
	// out over workers (see parallel.go).
	Run func(seed int64, g G, workers int) []R
	// Render prints rows; nil prints them as one table.
	Render func(w io.Writer, rows []R)
}

// Report runs the default grid and prints its rows under the title.
func (e Experiment[G, R]) Report(w io.Writer, seed int64, workers int) {
	if e.Title != "" {
		fmt.Fprintln(w, e.Title)
	}
	e.Print(w, e.Run(seed, e.Grid, workers))
}

// Print prints rows of any grid through the experiment's renderer.
func (e Experiment[G, R]) Print(w io.Writer, rows []R) {
	if e.Render == nil {
		metrics.TableOf(rows).Render(w)
		return
	}
	e.Render(w, rows)
}

// ---- E3: deployment scale ---------------------------------------------

// ScaleRow is one stack at one federation size.
type ScaleRow struct {
	Sites       int           `col:"sites"`
	Stack       Stack         `col:"stack"`
	RegPerCycle int           `col:"reg msgs/cycle"`
	Staleness   time.Duration `col:"staleness"`
	Setup       time.Duration `col:"setup latency"`
	MsgsPerOp   int           `col:"msgs/op"`
}

// E3 sweeps federation size (the grid is the site counts) and reports
// per-stack control-plane cost and freshness: registration messages per
// refresh cycle, worst-case discovery staleness just before a refresh,
// end-to-end placement latency, and control messages per placement. The
// paper's scale context (§2.1/§2.2): GT at 20-50 sites heading for 100s;
// PlanetLab at 155 sites heading for ~1000.
var E3 = Experiment[[]int, ScaleRow]{
	Grid: []int{10, 50, 100, 200, 500, 1000},
	Run: func(seed int64, sites []int, workers int) []ScaleRow {
		return grid(len(sites), workers, func(i int) []ScaleRow { return scaleRows(seed, sites[i]) })
	},
}

// scaleRows computes the E3 rows for one federation size. Each call owns a
// private engine and rng per stack, so grid points are independent and
// safe to fan out.
func scaleRows(seed int64, n int) []ScaleRow {
	specs := make([]SiteSpec, n)
	for i := range specs {
		specs[i] = SiteSpec{ // PlanetLab policy: both stacks admit all
			Name: fmt.Sprintf("s%04d", i), X: float64(3 * ((i % 40) + 1)), Y: float64(3 * (i / 40)),
			Nodes: 2, ClusterSlots: 8, Policy: PlanetLabSitePolicy(),
		}
	}

	// Globus build: measure one refresh cycle, then one brokered job.
	fg := Build(StackGlobus, Config{Seed: seed, RefreshInterval: 2 * time.Minute}, specs)
	regPerCycle, stale := refreshCycle(fg, fg.Index)
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
	rows := []ScaleRow{{n, StackGlobus, regPerCycle, stale.Round(time.Second),
		(placedAt - start).Round(time.Millisecond), int(fg.Net.Host("vo-broker").MsgsSent - msgs0)}}

	// PlanetLab build: measure the sensor plane over one refresh
	// cycle, then deploy a 5-point-of-presence slice.
	fp := Build(StackPlanetLab, Config{Seed: seed, RefreshInterval: 2 * time.Minute}, specs)
	regPPerCycle, staleP := refreshCycle(fp, fp.Comon)
	sites := make([]string, min(5, n))
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
		panic(err)
	}
	hops := fp.Deployer.Hops - hops0
	// The SHARP flow here is in-process; estimate wide-area latency
	// as hop count × mean broker↔site one-way delay (documented in
	// EXPERIMENTS.md).
	var rttSum time.Duration
	for _, s := range sites {
		rttSum += fp.Net.RTT("vo-broker", "gk-"+s)
	}
	est, ok := sim.CheckedDuration(float64(rttSum) / float64(len(sites)) / 2 * float64(hops))
	if !ok {
		panic(fmt.Sprintf("core: E3 latency estimate out of range: %d hops over %v", hops, rttSum))
	}
	return append(rows, ScaleRow{n, StackPlanetLab, regPPerCycle, staleP.Round(time.Second), est.Round(time.Millisecond), hops})
}

// refreshCycle measures one 2-minute refresh cycle of idx on f: the
// registrations it absorbs, and its worst staleness a second before the
// next cycle lands.
func refreshCycle(f *Federation, idx *mds.GIIS) (int, time.Duration) {
	if scaleMidHook != nil {
		scaleMidHook(f)
	}
	reg0 := idx.RegisterN
	f.Eng.RunUntil(f.Eng.Now() + 2*time.Minute)
	regs := idx.RegisterN - reg0
	f.Eng.RunUntil(f.Eng.Now() + 2*time.Minute - time.Second)
	return regs, idx.Eval(mds.Query{}).MaxStale
}

// scaleMidHook, when set, runs on each freshly built federation inside
// scaleRows (E3) — the snapshot-purity gate uses it to take mid-scenario
// engine snapshots. Always nil outside tests.
var scaleMidHook func(f *Federation)

// ---- E4: proxy-certificate lifetime -----------------------------------

// ProxyGrid is E4's grid: proxy lifetimes over one population of Jobs jobs.
type ProxyGrid struct {
	Lifetimes []time.Duration
	Jobs      int
}

// ProxyRow is one proxy lifetime's outcome.
type ProxyRow struct {
	Lifetime    time.Duration `col:"proxy lifetime"`
	FailRate    float64       `col:"job auth-failure rate"`
	AbuseWindow time.Duration `col:"mean abuse window"`
	Cost        float64       `col:"tradeoff cost"`
}

// E4 quantifies §4.2.1's tradeoff: "Choosing the lifetime of proxy
// certificates requires a compromise between allowing long-term jobs to
// continue to run as authenticated entities and the need to limit the
// damage in the event a proxy is compromised." For each lifetime, a
// lognormal job population (median 2h) runs through real chain validation
// at completion time; rows report the authentication failure rate and the
// mean abuse window a stolen proxy would grant. The job population is
// generated once, before the fan-out, and only read by the grid points.
var E4 = Experiment[ProxyGrid, ProxyRow]{
	Grid: ProxyGrid{Jobs: 500, Lifetimes: []time.Duration{
		time.Hour, 2 * time.Hour, 4 * time.Hour, 8 * time.Hour, 16 * time.Hour, 32 * time.Hour, 64 * time.Hour,
	}},
	Run: func(seed int64, g ProxyGrid, workers int) []ProxyRow {
		jobs := workload.GenerateGridJobs(rand.New(rand.NewSource(seed)), workload.GridJobConfig{
			MeanInterarrival: time.Minute,
			MedianRun:        2 * time.Hour,
			RunSigma:         1.0,
			MaxCount:         1,
			WallFactor:       1.5,
		}, g.Jobs)
		return each(len(g.Lifetimes), workers, func(i int) ProxyRow { return proxyLifetimeRow(seed, jobs, g.Lifetimes[i]) })
	},
}

// proxyLifetimeRow computes one E4 row: all state (CA, principals, prng)
// is private to the call; jobs is only read.
func proxyLifetimeRow(seed int64, jobs []workload.GridJob, life time.Duration) ProxyRow {
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
	return ProxyRow{life, failRate, meanAbuse, cost}
}

// ---- E5: delegation styles --------------------------------------------

// DelegationGrid is E5's grid: Ops placements over Sites sites at each
// policy-churn probability.
type DelegationGrid struct {
	Sites, Ops int
	Churns     []float64
}

// DelegationRow is one brokering style at one churn probability.
type DelegationRow struct {
	Churn             float64 // printed above its table, not in it
	Style             string  `col:"style"`
	SuccessRate       float64 `col:"success rate"`
	HopsPerOp         float64 `col:"mean hops/op"`
	IdentitiesExposed int     `col:"identities exposed"`
	ResourceExposed   float64 `col:"resource exposed (cpu)"`
}

// E5 compares the two §4.2 brokering styles under site-policy churn:
// before each placement every site flips into refusing the user with
// probability churn (and heals otherwise). Identity-delegation brokering
// re-authenticates on every submission, so churn bites immediately; usage
// delegation rides bearer tickets acquired before the churn, so
// outstanding claims keep redeeming. The blast-radius columns quantify
// what a compromised broker yields under each style. Each churn value is
// one grid point; its operations share one federation and one churn rng.
var E5 = Experiment[DelegationGrid, DelegationRow]{
	Grid: DelegationGrid{Sites: 10, Ops: 50, Churns: []float64{0, 0.5, 0.9}},
	Run: func(seed int64, g DelegationGrid, workers int) []DelegationRow {
		return grid(len(g.Churns), workers, func(i int) []DelegationRow {
			return delegationRows(seed, g.Sites, g.Ops, g.Churns[i])
		})
	},
	// Each churn value yields one row per style, printed as its own table.
	Render: func(w io.Writer, rows []DelegationRow) {
		for i := 0; i+1 < len(rows); i += 2 {
			fmt.Fprintf(w, "churn probability %.2f:\n", rows[i].Churn)
			metrics.TableOf(rows[i : i+2]).Render(w)
			fmt.Fprintln(w)
		}
	},
}

// delegationRows computes E5's two rows at one churn probability.
func delegationRows(seed int64, nSites, nOps int, churn float64) []DelegationRow {
	specs := lineOf(nSites, "s%02d", 5, SiteSpec{Y: 10, Nodes: 2, ClusterSlots: 4, Policy: PlanetLabSitePolicy()})

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
	rows := []DelegationRow{{churn, "identity-delegation (globus)", float64(okG) / float64(nOps),
		float64(fg.Matchmaker.Hops-hops0) / float64(nOps), broker.MatchmakerBlastRadius(fg.Matchmaker).IdentitiesExposed, 0}}

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
	return append(rows, DelegationRow{churn, "usage-delegation (planetlab)", float64(okP) / float64(nOps),
		float64(fp.Deployer.Hops-hopsP0) / float64(nOps), 0, broker.DeployerBlastRadius(fp.Deployer).ResourceExposed})
}

// ---- E6: allocation disciplines ---------------------------------------

// AllocationGrid is E6's grid: Services services landing on Nodes nodes.
type AllocationGrid struct{ Nodes, Services int }

// AllocationRow is one allocation discipline's outcome.
type AllocationRow struct {
	Discipline        string  `col:"discipline"`
	PortConflictRate  float64 `col:"port conflict rate"`
	AdmissionFailRate float64 `col:"admission fail rate"`
	Utilization       float64 `col:"cpu utilization"`
	Jain              float64 `col:"jain fairness"`
}

// E6 reproduces §4.2.2's observation: "most resources allocations are
// 'best-effort' and resources that cannot be shared (e.g., network ports)
// are allocated on a first-come-first-served basis." A Zipf-popular
// service population lands on a node pool under two disciplines; rows
// report port-conflict rate, admission failures, CPU utilization, and Jain
// fairness of achieved/demanded CPU. The service population is generated
// once and only read by the grid points.
var E6 = Experiment[AllocationGrid, AllocationRow]{
	Grid: AllocationGrid{Nodes: 10, Services: 300},
	Run: func(seed int64, g AllocationGrid, workers int) []AllocationRow {
		svcs := workload.GenerateNetServices(rand.New(rand.NewSource(seed)), workload.DefaultNetServices(), g.Services)
		return each(len(allocationDisciplines), workers, func(i int) AllocationRow {
			return allocationRow(seed, g.Nodes, svcs, allocationDisciplines[i])
		})
	},
}

// allocationDisciplines is the E6 grid axis, in output order.
var allocationDisciplines = []string{"best-effort", "reserved"}

// allocationRow computes one E6 row: the service population svcs is
// read-only; the engine, nodes, and managers are private to the call.
func allocationRow(seed int64, nNodes int, svcs []workload.NetService, discipline string) AllocationRow {
	nServices := len(svcs)
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
	return AllocationRow{discipline, float64(portConflicts) / float64(nServices),
		float64(admissionFails) / float64(nServices), totalUsed / capacity, metrics.Jain(ratios)}
}

// ---- E7: heterogeneity glue -------------------------------------------

// HeteroGrid is E7's grid: Jobs jobs through each count of dialects.
type HeteroGrid struct {
	Dialects []int
	Jobs     int
}

// HeteroRow is one dialect count's outcome.
type HeteroRow struct {
	Dialects     int     `col:"dialects"`
	OpsPerJob    float64 `col:"translate ops/job"`
	OpaqueErrors float64 `col:"opaque error fraction"`
	Completed    int     `col:"jobs completed"`
}

// E7 quantifies §4.1: GT's "glue" interposes translation over h distinct
// local-manager dialects, while PlanetLab "does not need to build the
// 'glue' level". Rows report translation operations per job and the
// fraction of failures that lose fidelity in back-translation (h=0 is the
// PlanetLab uniform interface).
var E7 = Experiment[HeteroGrid, HeteroRow]{
	Grid: HeteroGrid{Dialects: []int{0, 1, 2, 4, 8}, Jobs: 200},
	Run: func(seed int64, g HeteroGrid, workers int) []HeteroRow {
		return each(len(g.Dialects), workers, func(i int) HeteroRow { return heterogeneityRow(seed, g.Dialects[i], g.Jobs) })
	},
}

// heterogeneityRow computes one E7 row; engine, managers, rng, and job
// stream are all private to the call.
func heterogeneityRow(seed int64, h, nJobs int) HeteroRow {
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
	return HeteroRow{h, float64(ops) / float64(nJobs), opaqueFrac, done}
}

func stripWall(r rsl.Request) rsl.Request {
	return rsl.Request{Relations: slices.DeleteFunc(slices.Clone(r.Relations), func(rel rsl.Relation) bool { return rel.Attr == "maxWallTime" })}
}

// ---- E8: data-grid transfers ------------------------------------------

// TransferGrid is E8's grid: a transfer of Bytes at each loss rate, stripe
// width and path choice, flattened loss-major.
type TransferGrid struct {
	Bytes   float64
	Losses  []float64
	Stripes []int
}

// TransferRow is one transfer's throughput.
type TransferRow struct {
	Loss       float64 `col:"loss"`
	Streams    int     `col:"streams"`
	Path       string  `col:"path"`
	Throughput float64 `col:"throughput MB/s"`
}

// E8 reproduces the §5 scenario quantitatively: striped GridFTP-style
// transfers with and without a PlanetLab multipath overlay, across loss
// rates. The expected shape: striping multiplies loss-limited throughput;
// the overlay wins once the direct path is lossy.
var E8 = Experiment[TransferGrid, TransferRow]{
	Grid: TransferGrid{Bytes: 1e9, Losses: []float64{0, 0.005, 0.01, 0.02}, Stripes: []int{1, 2, 4, 8, 16}},
	Run: func(seed int64, g TransferGrid, workers int) []TransferRow {
		overlays := []bool{false, true}
		return each(len(g.Losses)*len(g.Stripes)*len(overlays), workers, func(i int) TransferRow {
			loss := g.Losses[i/(len(g.Stripes)*len(overlays))]
			k := g.Stripes[(i/len(overlays))%len(g.Stripes)]
			return dataGridRow(seed, g.Bytes, loss, k, overlays[i%len(overlays)])
		})
	},
}

// dataGridRow computes one E8 cell (loss × stripe × path choice) on a
// private engine and network.
func dataGridRow(seed int64, bytes, loss float64, k int, overlay bool) TransferRow {
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
		panic(err)
	}
	eng.Run()
	if result == nil {
		panic(fmt.Sprintf("core: E8 transfer at loss %v never completed", loss))
	}
	return TransferRow{loss, k, pathName, result.ThroughputBps() / 1e6}
}

// ---- E9: SHARP oversubscription ---------------------------------------

// OversubRow is one oversell factor's outcome.
type OversubRow struct {
	Factor       float64 `col:"oversell factor"`
	Issued       int     `col:"tickets issued"`
	Redeemed     int     `col:"redeems ok"`
	Conflicts    int     `col:"conflicts"`
	Utilization  float64 `col:"utilization"`
	ConflictRate float64 `col:"conflict rate"`
}

// E9 sweeps the authority's oversell factor (the grid is the factors):
// soft-claim issuance rises with the factor and the predicted conflicts
// surface at redeem time. Shape: utilization climbs to 1.0 at factor >= 1;
// the rejection rate grows past it.
var E9 = Experiment[[]float64, OversubRow]{
	Grid: []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0},
	Run: func(seed int64, factors []float64, workers int) []OversubRow {
		return each(len(factors), workers, func(i int) OversubRow { return oversubRow(seed, factors[i]) })
	},
}

// oversubRow computes one E9 row on a private engine, rng, and authority.
func oversubRow(seed int64, factor float64) OversubRow {
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
	return OversubRow{factor, len(tickets), ok, conflicts, leased / 100, float64(conflicts) / float64(len(tickets))}
}
