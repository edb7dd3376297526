package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultlab"
	"repro/internal/mds"
	"repro/internal/perf/chaos"
	"repro/internal/perf/scale"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload/cdn"
)

// callOut is what one call reports back to the harness.
type callOut struct {
	units  int    // work units completed (leases granted, seeds swept, queries answered, ...)
	failed int    // work units the call attempted but whose output check failed
	digest string // the call's deterministic output, hashed into the repetition digest
}

// call is one operation the harness runs under recover and times from
// outside. units is the work it is charged with as attempted AND failed
// when it panics or returns an error; units == 0 marks an auxiliary step
// (timed in the repetition's wall, not an op of its own).
type call struct {
	units int
	run   func() (callOut, error)
}

// fixture is one workload's generated input at one size. A repetition
// runs calls in order; reset (when set) runs untimed after it so every
// repetition starts from the same state.
type fixture struct {
	calls []call
	reset func()
	sizes map[string]int

	// What the traced run reads back after a repetition.
	e14    *scale.Report // last scale.Run report (e14-* only)
	e14cfg scale.Config
	mds    *mdsIndex // the built index (mds-discovery only)
	seeds  []int64   // the per-op seeds (sweeps and cdn)
	// The scenario and profiles every seed of a sweep runs under.
	sweepCfg faultlab.ChaosConfig
	profiles []faultlab.Profile
}

// workload names one end-to-end run people wait for. build generates
// its inputs from the seed alone; div shrinks it (1 = full size, 8 = the
// warm-up, 40 = the smoke test).
type workload struct {
	name  string
	op    string // what ops_per_s counts
	why   string
	build func(seed int64, div int) *fixture
}

// Full sizes: as large as lets a run of -seconds 15 hold the floor of
// three repetitions even in the sandbox host's slow phases; a repetition
// is 3.4-4.0 s when the host is quiet (README "Harness rules").
const (
	leaseSites     = 72  // × 512 leases per site
	registrySites  = 384 // × 512 nodes per site, refreshed every minute
	chaosSeeds     = 80
	byzantineSeeds = 100
	cdnCurves      = 40 // × 3 profiles, one op each
	mdsRounds      = 180
)

func shrink(n, div int) int {
	if n /= div; n < 1 {
		return 1
	}
	return n
}

var workloads = []*workload{
	{
		name: "e14-leases",
		op:   "lease granted",
		why:  "E14 lease plane: ed25519 sign/verify in identity+sharp does nearly all the work; mds, sim and simnet stay under a few percent",
		build: func(seed int64, div int) *fixture {
			cfg := e14Config(shrink(leaseSites, div), 64, 512, 0)
			target := cfg.Sites * cfg.LeasesPerSite
			return e14Fixture(seed, cfg, target, func(rep *scale.Report) (int, int) {
				return rep.GrantedN, target - rep.GrantedN
			})
		},
	},
	{
		name: "e14-registry",
		op:   "MDS registration",
		why:  "same scale.Run, opposite mix: GRIS push, simnet.Send and RegionIndex registration plus GC carry the run, so a lease-plane gain predicts no change here",
		build: func(seed int64, div int) *fixture {
			cfg := e14Config(shrink(registrySites, div), 512, 4, time.Minute)
			nodes := cfg.Sites * cfg.NodesPerSite
			return e14Fixture(seed, cfg, nodes, func(rep *scale.Report) (int, int) {
				return rep.RegisterN, nodes - rep.NodesLiveN
			})
		},
	},
	{
		name:  "chaos-sweep",
		op:    "seed (3 warm-forked profile runs)",
		why:   "broadest path: core.Build, gram/gsi admission, flat-GIIS push, resilience/servicemgr/broker renewals, faultlab audits, snapshot and fork per profile",
		build: chaosFixture,
	},
	{
		name:  "byzantine-sweep",
		op:    "seed (one cold mixed-profile run)",
		why:   "uses sharp/identity differently from e14-leases: sequential Redeem through the exchange with distinct chains, replay cache, forgery kit and trust scoring, no fork",
		build: byzantineFixture,
	},
	{
		name:  "cdn-churn",
		op:    "curve of one profile (a single-stream and a striped cell)",
		why:   "data plane: sim.FluidSystem re-allocation, simnet flows and the kernel heap with zero crypto, so it is the bypass workload for every control-plane change",
		build: cdnFixture,
	},
	{
		name:  "mds-discovery",
		op:    "query",
		why:   "query-heavy reads beside e14-registry's writes on the same mds shard code, so a refresh-path gain that slows or bloats queries is visible",
		build: mdsFixture,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func e14Config(sites, nodes, leases int, refresh time.Duration) scale.Config {
	cfg := scale.DefaultConfig()
	cfg.Sites, cfg.Regions, cfg.NodesPerSite, cfg.LeasesPerSite = sites, min(8, sites), nodes, leases
	if refresh > 0 {
		cfg.RefreshInterval = refresh
	}
	return cfg
}

// e14Fixture is one scale.Run call, charged with nominal units if it
// panics. units maps the report to (work done, work missing); the lease
// target must be met on either E14 workload.
func e14Fixture(seed int64, cfg scale.Config, nominal int, units func(*scale.Report) (done, missing int)) *fixture {
	fx := &fixture{
		e14cfg: cfg,
		sizes: map[string]int{
			"sites": cfg.Sites, "regions": cfg.Regions, "nodes_per_site": cfg.NodesPerSite,
			"leases_per_site": cfg.LeasesPerSite, "refresh_s": int(cfg.RefreshInterval / time.Second),
		},
	}
	fx.calls = []call{{units: nominal, run: func() (callOut, error) {
		rep := scale.Run(seed, cfg, 1)
		fx.e14 = rep
		var b strings.Builder
		rep.Render(&b)
		done, missing := units(rep)
		if target := cfg.Sites * cfg.LeasesPerSite; rep.GrantedN != target {
			return callOut{}, fmt.Errorf("granted %d leases, target %d", rep.GrantedN, target)
		}
		return callOut{units: done, failed: missing, digest: b.String()}, nil
	}}}
	return fx
}

// armAt is the virtual time core.Build leaves a federation's engine at.
// faultlab.Generate can place a fault before it, and installing such a
// schedule panics (see README "Known defect"). The benchmark driver picks
// the seeds and wants workloads on which no op fails, so the sweep
// generators leave those seeds out; TestArmDefectScreen fails, and this
// screen goes, once faultlab stops panicking on them.
const armAt = time.Second

func tripsArmDefect(seed int64, profiles []faultlab.Profile, cfg faultlab.ChaosConfig) bool {
	for _, p := range profiles {
		// Generate returns faults sorted by start time.
		if s := faultlab.Generate(seed, p, cfg.SiteNames(), cfg.Horizon); len(s.Faults) > 0 && s.Faults[0].At < armAt {
			return true
		}
	}
	return false
}

// sweepSeeds returns n consecutive seeds from start, skipping those
// whose fault schedule trips the arm-time defect.
func sweepSeeds(start int64, n int, profiles []faultlab.Profile, cfg faultlab.ChaosConfig) []int64 {
	seeds := make([]int64, 0, n)
	for s := start; len(seeds) < n; s++ {
		if !tripsArmDefect(s, profiles, cfg) {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// chaosSweepConfig is the scenario CI sweeps: the default chaos run plus
// the resilience kit, 90-minute leases and a 15-minute reconcile pass.
func chaosSweepConfig() faultlab.ChaosConfig {
	cfg := faultlab.DefaultChaosConfig()
	cfg.Resilience = true
	cfg.Lease = 90 * time.Minute
	cfg.ReconcileEvery = 15 * time.Minute
	return cfg
}

// chaosCall is one seed of the chaos sweep: chaos.Sweep is Reports
// reduced through Add; taking the reports lets the digest cover every
// run's summary table.
func chaosCall(s int64, profiles []faultlab.Profile, cfg faultlab.ChaosConfig) call {
	return call{units: 1, run: func() (callOut, error) {
		res := &faultlab.SweepResult{}
		var b strings.Builder
		for _, rep := range chaos.Reports(s, 1, profiles, cfg, 1) {
			res.Add(rep)
			fmt.Fprintf(&b, "seed=%d profile=%s availability=%.9f lapses=%d\n%s",
				rep.Seed, rep.Profile, rep.Availability, rep.LeaseLapses, rep.Summary)
		}
		b.WriteString(res.String())
		if !res.OK() {
			return callOut{}, fmt.Errorf("seed %d: %d invariant violations", s, res.ViolationN)
		}
		return callOut{units: 1, digest: b.String()}, nil
	}}
}

func chaosFixture(seed int64, div int) *fixture {
	cfg, profiles := chaosSweepConfig(), faultlab.Profiles()
	fx := &fixture{sweepCfg: cfg, profiles: profiles, seeds: sweepSeeds(seed, shrink(chaosSeeds, div), profiles, cfg)}
	fx.sizes = map[string]int{"seeds": len(fx.seeds), "profiles": len(profiles), "sites": cfg.Sites}
	for _, s := range fx.seeds {
		fx.calls = append(fx.calls, chaosCall(s, profiles, cfg))
	}
	return fx
}

func byzantineFixture(seed int64, div int) *fixture {
	cfg := faultlab.DefaultByzantineChaosConfig()
	mixed, err := faultlab.ProfileByName("mixed")
	if err != nil {
		panic(err)
	}
	profiles := []faultlab.Profile{mixed}
	fx := &fixture{sweepCfg: cfg, profiles: profiles, seeds: sweepSeeds(seed, shrink(byzantineSeeds, div), profiles, cfg)}
	fx.sizes = map[string]int{"seeds": len(fx.seeds), "sites": cfg.Sites}
	for _, s := range fx.seeds {
		fx.calls = append(fx.calls, call{units: 1, run: func() (callOut, error) {
			res := chaos.ByzantineSweep(s, 1, mixed, cfg, 1)
			// res.OK() also bounds the late byzantine market share at 5%,
			// a convergence claim about a 20-seed sweep: one seed's share
			// moves in steps of 1/16, so it is digested, not gated.
			if res.ViolationN != 0 || !res.AttacksOK {
				return callOut{}, fmt.Errorf("seed %d: %d violations, attacks rejected %v", s, res.ViolationN, res.AttacksOK)
			}
			return callOut{units: 1, digest: res.String()}, nil
		}})
	}
	return fx
}

const cdnHorizon = 10 * time.Minute

// cdnFixture runs the curve of every seed one profile at a time: each op
// is cdn.Curve over one profile, its single-stream and its striped cell,
// so a repetition holds over a hundred ops for the percentiles to rest on.
// The rows are the ones the all-profile curve prints (every cell runs on
// a private engine from the same seed).
func cdnFixture(seed int64, div int) *fixture {
	cfg, profiles := cdn.DefaultConfig(), cdn.CurveProfiles()
	fx := &fixture{}
	for i := 0; i < shrink(cdnCurves, div); i++ {
		fx.seeds = append(fx.seeds, seed+int64(i))
	}
	fx.sizes = map[string]int{"curves": len(fx.seeds), "profiles": len(profiles), "cells_per_op": 2, "requests_per_cell": cfg.Requests}
	for _, s := range fx.seeds {
		for _, p := range profiles {
			fx.calls = append(fx.calls, call{units: 1, run: func() (callOut, error) {
				out := cdn.Curve(s, cfg, []faultlab.Profile{p}, cdnHorizon, 1).String()
				if strings.Count(out, "striped") != 1 || strings.Count(out, "single") != 1 {
					return callOut{}, fmt.Errorf("seed %d profile %s: table lacks its striped or its single row:\n%s", s, p.Name, out)
				}
				return callOut{units: 1, digest: out}, nil
			}})
		}
	}
	return fx
}

// mdsIndex is the benchmark-built sharded index of mds-discovery plus
// the generator's own model of its records, which the brute-force
// output check filters.
type mdsIndex struct {
	root    *mds.RootIndex
	regions []*mds.RegionIndex

	sitesPer, nodesPer int
	phase, phase0      []int // per global site: current / initial load phase
	loadLT4            int   // model count of records with load < 4
	attrs              map[string]string
}

const mdsTTL = time.Hour

var (
	mdsOS = [3]string{"linux", "planetlab", "linux"}
	// mdsShapes names a round's queries in order; the traced run's span
	// names derive from them.
	mdsShapes = []string{"broad", "pruned", "range", "range_load", "ghost", "two_filter"}
)

func mdsLoad(node, phase int) int { return (node*7 + phase) % 32 }
func mdsCPUs(node int) int        { return 2 << uint(node%4) }

// registerSite (re-)registers one site's records at the given load
// phase — E14's attribute scheme — and returns how many have load < 4.
func (ix *mdsIndex) registerSite(g, phase int) (lt4 int) {
	rg := ix.regions[g/ix.sitesPer]
	site := fmt.Sprintf("s%04d", g)
	for n := 0; n < ix.nodesPer; n++ {
		load := mdsLoad(n, phase)
		if load < 4 {
			lt4++
		}
		ix.attrs["region"] = rg.Name()
		ix.attrs["site"] = site
		ix.attrs["os"] = mdsOS[n%len(mdsOS)]
		ix.attrs["cpus"] = strconv.Itoa(mdsCPUs(n))
		ix.attrs["load"] = strconv.Itoa(load)
		if err := rg.RegisterRecord(mds.Registration{Rec: mds.Record{
			Name: fmt.Sprintf("%s/n%03d", site, n), Source: site, Attrs: ix.attrs,
		}, TTL: mdsTTL}); err != nil {
			panic(fmt.Sprintf("mds-discovery: register %s: %v", site, err))
		}
	}
	return lt4
}

// refresh moves one site to a new load phase in place and re-pushes its
// region's summary to the root, keeping the model in step.
func (ix *mdsIndex) refresh(g, phase int) {
	old := 0
	for n := 0; n < ix.nodesPer; n++ {
		if mdsLoad(n, ix.phase[g]) < 4 {
			old++
		}
	}
	ix.loadLT4 += ix.registerSite(g, phase) - old
	ix.phase[g] = phase
	rg := ix.regions[g/ix.sitesPer]
	ix.root.AbsorbSummary(rg.Summary(mdsTTL))
}

func capAt(n, limit int) int {
	if limit > 0 && n > limit {
		return limit
	}
	return n
}

func renderReply(b *strings.Builder, reply mds.QueryReply) {
	keys := make([]string, 0, 8)
	for _, rec := range reply.Records {
		fmt.Fprintf(b, "%s %s %v", rec.Name, rec.Source, rec.Stamp)
		keys = keys[:0]
		for k := range rec.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%s", k, rec.Attrs[k])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "maxstale=%v\n", reply.MaxStale)
}

// mdsFixture builds 16 regions × 64 sites × 100 nodes behind one root
// and, per round, one in-place site refresh followed by six query
// shapes. Sites, phases and query targets are drawn from the seed.
func mdsFixture(seed int64, div int) *fixture {
	const regionsN, nodesPer = 16, 100
	sitesPer, rounds := shrink(64, div), shrink(mdsRounds, div)
	rng := rand.New(rand.NewSource(seed))

	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("root/index", "HQ", 1e9)
	ix := &mdsIndex{
		root:     mds.NewRootIndex(eng, net, "root/index"),
		sitesPer: sitesPer, nodesPer: nodesPer,
		attrs: make(map[string]string, 5),
	}
	in := mds.NewInterner()
	for r := 0; r < regionsN; r++ {
		name := fmt.Sprintf("R%02d", r)
		net.AddHost(name+"/index", "HQ", 1e9)
		ix.regions = append(ix.regions, mds.NewRegionIndex(eng, net, name+"/index", name, in))
	}
	total := regionsN * sitesPer
	ix.phase, ix.phase0 = make([]int, total), make([]int, total)
	linux, cpus16 := 0, 0
	for g := 0; g < total; g++ {
		ix.phase0[g] = rng.Intn(32)
		ix.phase[g] = ix.phase0[g]
		ix.loadLT4 += ix.registerSite(g, ix.phase0[g])
	}
	for n := 0; n < nodesPer; n++ { // static attributes repeat per site
		if mdsOS[n%len(mdsOS)] == "linux" {
			linux += total
		}
		if mdsCPUs(n) >= 16 {
			cpus16 += total
		}
	}
	for _, rg := range ix.regions {
		ix.root.AttachRegion(rg)
		ix.root.AbsorbSummary(rg.Summary(mdsTTL))
	}

	fx := &fixture{mds: ix, sizes: map[string]int{
		"regions": regionsN, "sites_per_region": sitesPer, "nodes_per_site": nodesPer,
		"records": total * nodesPer, "rounds": rounds, "queries_per_round": len(mdsShapes),
	}}
	var touched []int
	for k := 0; k < rounds; k++ {
		g, phase := rng.Intn(total), rng.Intn(32)
		region := fmt.Sprintf("R%02d", rng.Intn(regionsN))
		qsite := rng.Intn(total)
		touched = append(touched, g)
		fx.calls = append(fx.calls, call{run: func() (callOut, error) {
			ix.refresh(g, phase)
			return callOut{}, nil
		}})
		eq := func(attr, v string) mds.Filter { return mds.Filter{Attr: attr, Op: mds.FEq, Value: v} }
		queries := []struct {
			q    mds.Query
			want func() int // brute-force count over the model, limit applied
		}{
			{mds.Query{Filters: []mds.Filter{eq("os", "linux")}, Limit: 10}, func() int { return capAt(linux, 10) }},
			{mds.Query{Filters: []mds.Filter{eq("region", region)}, Limit: 5}, func() int { return capAt(sitesPer*nodesPer, 5) }},
			{mds.Query{Filters: []mds.Filter{{Attr: "cpus", Op: mds.FGe, Value: "16"}}, Limit: 10}, func() int { return capAt(cpus16, 10) }},
			{mds.Query{Filters: []mds.Filter{{Attr: "load", Op: mds.FLt, Value: "4"}}, Limit: 20}, func() int { return capAt(ix.loadLT4, 20) }},
			{mds.Query{Filters: []mds.Filter{eq("ghost", "x")}}, func() int { return 0 }},
			{mds.Query{Filters: []mds.Filter{eq("site", fmt.Sprintf("s%04d", qsite)), {Attr: "cpus", Op: mds.FGe, Value: "8"}}}, func() int {
				n := 0
				for node := 0; node < nodesPer; node++ {
					if mdsCPUs(node) >= 8 {
						n++
					}
				}
				return n
			}},
		}
		for _, qc := range queries {
			fx.calls = append(fx.calls, call{units: 1, run: func() (callOut, error) {
				reply, err := ix.root.QueryShards(qc.q)
				if err != nil {
					return callOut{}, err
				}
				if want := qc.want(); len(reply.Records) != want {
					return callOut{}, fmt.Errorf("query %+v: %d records, brute force says %d", qc.q, len(reply.Records), want)
				}
				var b strings.Builder
				renderReply(&b, reply)
				return callOut{units: 1, digest: b.String()}, nil
			}})
		}
	}
	fx.reset = func() {
		for _, g := range touched {
			ix.refresh(g, ix.phase0[g])
		}
	}
	return fx
}
