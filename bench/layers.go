package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/broker"
	"repro/internal/capability"
	"repro/internal/core"
	"repro/internal/faultlab"
	"repro/internal/gram"
	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/perf/chaos"
	"repro/internal/perf/scale"
	"repro/internal/rsl"
	"repro/internal/servicemgr"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trust"
	"repro/internal/workload/cdn"
)

// values are per-layer metric values by name.
type values map[string]float64

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// traced is the separate per-layer run of one workload: an untraced
// repetition for the wall every share is over, the unit-cost probes, and
// the workload's own count or replay pass. End-to-end numbers never come
// from here.
func traced(w *workload, o options) (*result, *recorder) {
	rec := newRecorder()
	var units values
	if err := catch(func() { units = unitProbes(rec, o.seed) }); err != nil {
		res := &result{Workload: w.name, Op: w.op, Traced: true, Errors: []string{firstLine("unit probes: " + err.Error())}}
		return res, rec
	}
	return tracedWith(w, o, rec, units), rec
}

// tracedWith attributes one workload given already-measured unit costs
// (the smoke test measures them once for all six).
func tracedWith(w *workload, o options, rec *recorder, units values) *result {
	fx := w.build(o.seed, o.div)
	runRep(w.build(o.seed, warmupDiv*o.div), nil, nil)
	base := runRep(fx, nil, nil)
	res := newResult(w, fx, o, []repStats{base})
	res.Traced = true

	m := values{}
	for k, v := range units {
		m[k] = v
	}
	if err := catch(func() { attribute(w, fx, o, rec, base, m) }); err != nil {
		res.Errors = append(res.Errors, firstLine("attribution: "+err.Error()))
		res.Failed, res.FailedOpsShare, res.Correct = res.Attempted, 1, false
	}
	res.Metrics = map[string]metricValue{}
	for _, def := range perLayer {
		res.Metrics[def.Name] = metricValue{Value: m[def.Name], Unit: def.Unit}
	}
	return res
}

// ---- unit costs ----------------------------------------------------

// timeSpans records n spans named "probe."+name around fn(i) and
// returns n × their median duration in ns: a host hiccup inside one span
// does not set a unit cost.
func timeSpans(rec *recorder, name string, n int, fn func(i int)) float64 {
	durs := make([]float64, n)
	for i := range durs {
		rec.op()
		rec.begin("probe." + name)
		fn(i)
		durs[i] = float64(rec.end())
	}
	return median(durs) * float64(n)
}

// unitProbes calls each layer's public functions on workload-shaped
// inputs inside spans and returns the unit-cost metrics.
func unitProbes(rec *recorder, seed int64) values {
	m := values{}
	probeSim(rec, m)
	probeSimnet(rec, seed, m)
	probeIdentity(rec, seed, m)
	probeSharp(rec, seed, m)
	probeMDS(rec, seed, m)
	probeGrid(rec, seed, m)
	probeMarket(rec, seed, m)
	return m
}

func probeSim(rec *recorder, m values) {
	fire := func(n int) float64 {
		return timeSpans(rec, fmt.Sprintf("sim.fire_%dk", n/1000), 3, func(int) {
			e := sim.NewEngine(1)
			for j := 0; j < n; j++ {
				e.Schedule(time.Duration(j%997)*time.Millisecond, func() {})
			}
			e.Run()
		}) / float64(3*n)
	}
	m["sim.fire_10k_ns"] = fire(10_000)
	m["sim.fire_100k_ns"] = fire(100_000)

	m["sim.fluid_change_us"] = probeFluid(rec, 24)
}

// probeFluid is µs per consumer add or remove on a CDN-shaped fluid
// system: every consumer crosses the shared origin link and one of 8
// proxy links, so one change re-fills all `consumers` of them.
func probeFluid(rec *recorder, consumers int) float64 {
	e := sim.NewEngine(1)
	fs := sim.NewFluidSystem(e)
	origin := fs.NewResource("origin", 1.25e7)
	var proxies []*sim.FluidResource
	for i := 0; i < 8; i++ {
		proxies = append(proxies, fs.NewResource(fmt.Sprintf("p%d", i), 1.25e7))
	}
	add := func(k int) *sim.FluidConsumer {
		return fs.Add(&sim.FluidConsumer{Name: "f", Weight: 1}, 1e15, origin, proxies[k%len(proxies)])
	}
	live := make([]*sim.FluidConsumer, consumers)
	for k := range live {
		live[k] = add(k)
	}
	const spans, pairs = 4, 500
	total := timeSpans(rec, fmt.Sprintf("sim.fluid_change_%d", consumers), spans, func(s int) {
		for op := 0; op < pairs; op++ {
			k := (s*pairs + op) % len(live)
			fs.Remove(live[k])
			live[k] = add(k + op)
			e.RunUntil(e.Now() + time.Millisecond)
		}
	})
	return total / (spans * 2 * pairs) / 1e3
}

func probeSimnet(rec *recorder, seed int64, m values) {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 10, 0)
	net.AddHost("a", "A", 1e7)
	net.AddHost("b", "B", 1e7)
	net.Host("b").Handle("probe.sink", func(string, any) (any, error) { return nil, nil })
	net.Host("b").Handle("probe.echo", func(_ string, req any) (any, error) { return req, nil })
	const msgs = 1000
	m["simnet.send_ns"] = timeSpans(rec, "simnet.send", 5, func(int) {
		for i := 0; i < msgs; i++ {
			net.Send("a", "b", "probe.sink", nil)
		}
		eng.Run()
	}) / (5 * msgs)
	const calls = 200
	m["simnet.call_us"] = timeSpans(rec, "simnet.call", 5, func(int) {
		for i := 0; i < calls; i++ {
			net.Call("a", "b", "probe.echo", i, time.Second, func(_ any, err error) { must(err) })
		}
		eng.Run()
	}) / (5 * calls) / 1e3

	m["simnet.flow_us"] = probeFlow(rec, seed, 0)
}

// probeFlow is µs per CDN-style striped pull, start to done: origin to a
// proxy over the direct path and the two ring siblings as relays, pooled,
// on the CDN's topology, with `background` other such pulls in flight
// (each stream a fluid consumer the new one re-fills beside).
func probeFlow(rec *recorder, seed int64, background int) float64 {
	cfg := cdn.DefaultConfig()
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.BaseLoss = cfg.BaseLoss
	net.AddSite("origin", 0, 0)
	net.AddHost("origin", "origin", cfg.OriginBps)
	proxy := func(i int) string { return fmt.Sprintf("p%d", ((i%cfg.Proxies)+cfg.Proxies)%cfg.Proxies) }
	for i := 0; i < cfg.Proxies; i++ {
		ang := 2 * math.Pi * float64(i) / float64(cfg.Proxies)
		net.AddSite(proxy(i), 30*math.Cos(ang), 30*math.Sin(ang))
		net.AddHost(proxy(i), proxy(i), cfg.ProxyBps)
	}
	pull := func(i int, bytes float64) {
		opts := simnet.FlowOpts{Streams: 3, Pooled: true, Paths: [][]string{nil, {proxy(i + 1)}, {proxy(i - 1)}}}
		_, err := net.StartFlow("origin", proxy(i), bytes, opts, func(*simnet.Flow) {})
		must(err)
	}
	for i := 0; i < background; i++ {
		pull(i, 1e15) // outlives the probe
	}
	const flows = 40
	return timeSpans(rec, fmt.Sprintf("simnet.flow_bg%d", background), flows, func(i int) {
		pull(i, cfg.MedianBytes)
		for before := net.ActiveFlows(); net.ActiveFlows() >= before && eng.Step(); {
		}
	}) / flows / 1e3
}

func probeIdentity(rec *recorder, seed int64, m values) {
	rng := rand.New(rand.NewSource(seed))
	const n = 100
	m["identity.keygen_us"] = timeSpans(rec, "identity.keygen", n, func(int) {
		identity.NewPrincipal("probe", rng)
	}) / n / 1e3
	p := identity.NewPrincipal("signer", rng)
	msg := make([]byte, 160) // about one SHARP claim's to-be-signed bytes
	rng.Read(msg)
	var sig []byte
	m["identity.sign_us"] = timeSpans(rec, "identity.sign", n, func(int) { sig = p.Sign(msg) }) / n / 1e3
	m["identity.verify_us"] = timeSpans(rec, "identity.verify", n, func(int) {
		if !p.Verify(msg, sig) {
			panic("probe signature does not verify")
		}
	}) / n / 1e3

	ca := identity.NewCA("probe-ca", 1e6*time.Hour, rng)
	user := identity.NewPrincipal("probe-user", rng)
	cred := identity.UserCredential(user, ca.IssueUser(user, 0, 1e5*time.Hour))
	proxy, err := cred.Delegate("probe-user/p", 0, time.Hour, nil, rng)
	must(err)
	v := identity.NewVerifier(ca)
	m["identity.validate_proxy_us"] = timeSpans(rec, "identity.validate_proxy", n, func(int) {
		_, err := v.Validate(proxy, time.Second)
		must(err)
	}) / n / 1e3
}

// sharpSite is an E14-shaped site: compact-lease authority, one agent
// holding a root ticket, one service manager key.
type sharpSite struct {
	rng           *rand.Rand
	auth          *sharp.Authority
	agent         *sharp.Agent
	sm            *identity.Principal
	now, notAfter time.Duration
}

func newSharpSite(seed int64, stock float64) *sharpSite {
	eng := sim.NewEngine(seed)
	rng := eng.ForkRand()
	big := map[capability.ResourceType]float64{capability.CPU: 1e9}
	nm := capability.NewNodeManager("S", eng, rng, big)
	s := &sharpSite{
		rng:   rng,
		auth:  sharp.NewAuthority(eng, "S", identity.NewPrincipal("auth@S", rng), nm, big),
		agent: sharp.NewAgent(identity.NewPrincipal("agent@S", rng)),
		sm:    identity.NewPrincipal("sm@S", rng),
		now:   eng.Now(), notAfter: eng.Now() + 24*time.Hour,
	}
	s.auth.SetCompactLeases(true)
	s.auth.SetOversellFactor(2)
	root, err := s.auth.IssueTicket(s.agent.Name, s.agent.Key(), capability.CPU, stock, s.now, s.notAfter)
	must(err)
	must(s.agent.Acquire(root))
	return s
}

func (s *sharpSite) sell() *sharp.Ticket {
	subs, err := s.agent.Sell(s.sm.Name, s.sm.Public(), "S", capability.CPU, 1, s.now, s.notAfter)
	must(err)
	return subs[0]
}

func probeSharp(rec *recorder, seed int64, m values) {
	const batch, batches = 64, 6
	s := newSharpSite(seed, 4096)
	const n = 100
	m["sharp.issue_us"] = timeSpans(rec, "sharp.issue", n, func(int) {
		_, err := s.auth.IssueTicket(s.agent.Name, s.agent.Key(), capability.CPU, 1, s.now, s.notAfter)
		must(err)
	}) / n / 1e3

	tickets := make([]*sharp.Ticket, 0, batch*batches)
	m["sharp.sell_us"] = timeSpans(rec, "sharp.sell", batch*batches, func(int) {
		tickets = append(tickets, s.sell())
	}) / (batch * batches) / 1e3

	// Each batch is paired with as many bare ed25519 verifies as it runs,
	// timed right beside it, so the difference (sharp's own bookkeeping)
	// sees one state of the host.
	signer := identity.NewPrincipal("pair", s.rng)
	msg := make([]byte, 160)
	sig := signer.Sign(msg)
	var leases []*sharp.Lease
	var batchNs, bookNs []float64
	for b := 0; b < batches; b++ {
		verified0 := s.auth.BatchVerifiedN
		rec.op()
		rec.begin("probe.sharp.redeem_batch")
		results := s.auth.RedeemBatch(tickets[b*batch : (b+1)*batch])
		batchDur := float64(rec.end())
		for _, r := range results {
			must(r.Err)
			leases = append(leases, r.Lease)
		}
		verifies := s.auth.BatchVerifiedN - verified0
		rec.begin("probe.identity.verify_paired")
		for i := 0; i < verifies; i++ {
			if !signer.Verify(msg, sig) {
				panic("probe signature does not verify")
			}
		}
		verifyDur := float64(rec.end())
		batchNs = append(batchNs, batchDur/batch)
		bookNs = append(bookNs, (batchDur-verifyDur)/batch)
	}
	m["sharp.redeem_batch_us"] = median(batchNs) / 1e3
	m["sharp.bookkeeping_ns"] = median(bookNs)

	// Sequential redeems of distinct chains: every link is new to the
	// authority's memo, as on the byzantine exchange.
	const seq = 60
	seqTickets := make([]*sharp.Ticket, seq)
	for i := range seqTickets {
		ag := sharp.NewAgent(identity.NewPrincipal(fmt.Sprintf("agent-%d", i), s.rng))
		rt, err := s.auth.IssueTicket(ag.Name, ag.Key(), capability.CPU, 1, s.now, s.notAfter)
		must(err)
		must(ag.Acquire(rt))
		subs, err := ag.Sell(s.sm.Name, s.sm.Public(), "S", capability.CPU, 1, s.now, s.notAfter)
		must(err)
		seqTickets[i] = subs[0]
	}
	m["sharp.redeem_seq_us"] = timeSpans(rec, "sharp.redeem_seq", seq, func(i int) {
		_, err := s.auth.Redeem(seqTickets[i])
		must(err)
	}) / seq / 1e3

	m["sharp.renew_us"] = timeSpans(rec, "sharp.renew", n, func(i int) {
		rtk, err := s.auth.IssueTicket(s.agent.Name, s.agent.Key(), capability.CPU, 1, s.now, s.notAfter+time.Hour)
		must(err)
		_, err = s.auth.Renew(leases[i].ID, rtk)
		must(err)
	}) / n / 1e3
	const rel = 4
	m["sharp.release_ns"] = timeSpans(rec, "sharp.release", rel, func(b int) {
		for _, l := range leases[n+b*batch : n+(b+1)*batch] {
			s.auth.ReleaseLease(l)
		}
	}) / (rel * batch)

	m["sharp.heap_bytes_per_lease"] = heapPerLease(seed)
}

// heapPerLease redeems 2048 leases against a compact-store authority and
// reports the live heap they pin, by GC before and after.
func heapPerLease(seed int64) float64 {
	const n, batch = 2048, 64
	s := newSharpSite(seed, n)
	held := make([]*sharp.Lease, 0, n)
	tickets := make([]*sharp.Ticket, 0, batch)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for len(held) < n {
		tickets = tickets[:0]
		for len(tickets) < batch {
			tickets = append(tickets, s.sell())
		}
		for _, r := range s.auth.RedeemBatch(tickets) {
			must(r.Err)
			held = append(held, r.Lease)
		}
	}
	clear(tickets)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(s)
	runtime.KeepAlive(held)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
}

func probeMDS(rec *recorder, seed int64, m values) {
	// Steady-state refresh into a warm region: 64 sites × 100 nodes, the
	// registrations generated up front so only RegisterRecord is timed.
	reng := sim.NewEngine(seed)
	rnet := simnet.New(reng)
	rnet.AddSite("R", 0, 0)
	rnet.AddHost("R/index", "R", 1e9)
	region := mds.NewRegionIndex(reng, rnet, "R/index", "R", nil)
	regs := make([]mds.Registration, 0, 64*100)
	for g := 0; g < 64; g++ {
		site := fmt.Sprintf("s%04d", g)
		for n := 0; n < 100; n++ {
			regs = append(regs, mds.Registration{TTL: mdsTTL, Rec: mds.Record{
				Name: fmt.Sprintf("%s/n%03d", site, n), Source: site,
				Attrs: map[string]string{
					"region": "R", "site": site, "os": mdsOS[n%len(mdsOS)],
					"cpus": fmt.Sprint(mdsCPUs(n)), "load": fmt.Sprint(mdsLoad(n, g)),
				},
			}})
		}
	}
	refresh := func() {
		for i := range regs {
			must(region.RegisterRecord(regs[i]))
		}
	}
	refresh() // first pass allocates the slots
	const passes = 3
	m["mds.register_ns"] = timeSpans(rec, "mds.register", passes, func(int) { refresh() }) / float64(passes*len(regs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	refresh()
	runtime.ReadMemStats(&m1)
	m["mds.register_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(regs))

	// GRIS push: 512 fill-style providers pushed every minute for ten.
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("R", 0, 0)
	net.AddHost("R/index", "R", 1e9)
	net.AddHost("s/gk", "R", 1e8)
	rg := mds.NewRegionIndex(eng, net, "R/index", "R", nil)
	gris := mds.NewGRIS(eng, net, "s/gk")
	for n := 0; n < 512; n++ {
		cpus, load := fmt.Sprint(mdsCPUs(n)), fmt.Sprint(mdsLoad(n, 0))
		gris.AddProviderInto(fmt.Sprintf("s/n%03d", n), func(attrs map[string]string) {
			attrs["region"], attrs["site"], attrs["os"] = "R", "s", mdsOS[n%len(mdsOS)]
			attrs["cpus"], attrs["load"] = cpus, load
		})
	}
	gris.StartPush("R/index", time.Minute)
	eng.RunUntil(time.Second) // first push lands, untimed
	before := rg.RegisterN
	total := timeSpans(rec, "mds.push", 1, func(int) { eng.RunUntil(eng.Now() + 10*time.Minute) })
	m["mds.push_ns_per_record"] = total / float64(rg.RegisterN-before)

	probeQueries(rec, mdsFixture(seed, 4).mds, m) // 16 regions × 16 sites × 100 nodes

	t0 := time.Now()
	small, large := scale.RegistrationFlatness(seed, scale.Config{NodesPerSite: 100}, 64, 8,
		func() time.Duration { return time.Since(t0) })
	if small > 0 {
		m["mds.register_flatness"] = large / small
	}
}

// probeQueries times the three headline query shapes against a sharded
// index and counts what one query allocates.
func probeQueries(rec *recorder, ix *mdsIndex, m values) {
	shapes := []struct {
		metric string
		q      mds.Query
	}{
		{"mds.query_pruned_us", mds.Query{Filters: []mds.Filter{{Attr: "region", Op: mds.FEq, Value: "R03"}}, Limit: 5}},
		{"mds.query_broad_us", mds.Query{Filters: []mds.Filter{{Attr: "os", Op: mds.FEq, Value: "linux"}}, Limit: 10}},
		{"mds.query_range_us", mds.Query{Filters: []mds.Filter{{Attr: "cpus", Op: mds.FGe, Value: "16"}}, Limit: 10}},
	}
	const n = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, sh := range shapes {
		m[sh.metric] = timeSpans(rec, sh.metric, n, func(int) {
			_, err := ix.root.QueryShards(sh.q)
			must(err)
		}) / n / 1e3
	}
	runtime.ReadMemStats(&m1)
	queries := float64(n * len(shapes))
	m["mds.query_allocs"] = float64(m1.Mallocs-m0.Mallocs) / queries
	m["mds.query_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / queries / 1024
}

// chaosFederation builds the federation a chaos run starts from, through
// the same public constructor and site shape faultlab uses.
func chaosFederation(seed int64, cfg faultlab.ChaosConfig) *core.Federation {
	specs := make([]core.SiteSpec, cfg.Sites)
	for i, name := range cfg.SiteNames() {
		specs[i] = core.SiteSpec{
			Name: name, X: 12 * float64(i+1), Y: float64((i * 17) % 50),
			Nodes: 2, ClusterSlots: 8, Policy: core.PlanetLabSitePolicy(),
		}
	}
	fed := core.Build(core.StackHybrid, core.Config{
		Seed: seed, RefreshInterval: cfg.Refresh, Resilience: cfg.Resilience,
	}, specs)
	for _, s := range fed.JoinedSites() {
		if s.Runtime != nil {
			s.Runtime.Authority.SetOversellFactor(1e6)
		}
	}
	return fed
}

const probeRSL = "&(executable=probe)(count=1)(maxWallTime=1800)"

// probeGrid measures the Globus-side and control-loop layers on a built
// chaos federation, in the order a chaos run meets them.
func probeGrid(rec *recorder, seed int64, m values) {
	cfg := chaosSweepConfig()
	names := cfg.SiteNames()
	end := cfg.Horizon + cfg.Converge
	var fed *core.Federation
	const builds = 5
	m["core.build_ms"] = timeSpans(rec, "core.build", builds, func(int) { fed = chaosFederation(seed, cfg) }) / builds / 1e6

	must(fed.Deployer.Stock(200, 0, end+time.Hour, names...))
	sm := identity.NewPrincipal("probe-sm", fed.Rng)
	mgr := servicemgr.New(fed.Eng, fed.Deployer, sm, servicemgr.Config{
		Name: "probe-svc", Target: cfg.Target, CPUPerSite: cfg.CPUPerSite, Candidates: names, Lease: cfg.Lease,
	})
	mgr.SetResilience(fed.Resilience)
	must(mgr.Start())

	// The warm-sweep fork point: a built federation with its service up.
	const snaps = 10
	var snap sim.Snapshot
	m["sim.snapshot_us"] = timeSpans(rec, "sim.snapshot", snaps, func(int) { snap = fed.Eng.Snapshot() }) / snaps / 1e3
	m["sim.fork_us"] = timeSpans(rec, "sim.fork", snaps, func(int) { snap.Fork() }) / snaps / 1e3

	m["rsl.parse_ns"] = timeSpans(rec, "rsl.parse", 10, func(int) {
		for i := 0; i < 200; i++ {
			_, err := rsl.Parse(probeRSL)
			must(err)
		}
	}) / (10 * 200)

	user := fed.User("probe-user")
	proxy, err := user.Delegate("probe-user/p", fed.Eng.Now(), end+time.Hour, nil, fed.Rng)
	must(err)
	gk := fed.JoinedSites()
	policy := &gsi.SitePolicy{
		Auth:    &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(fed.CA)},
		Gridmap: gk[0].Gridmap,
	}
	const admits = 100
	m["gsi.admit_us"] = timeSpans(rec, "gsi.admit", admits, func(int) {
		_, _, err := policy.Admit(proxy, "", fed.Eng.Now())
		must(err)
	}) / admits / 1e3

	const jobs = 36
	m["gram.submit_us"] = timeSpans(rec, "gram.submit", jobs, func(i int) {
		req := gram.SubmitRequest{Cred: proxy, Spec: gram.JobSpec{RSL: probeRSL, ActualRun: time.Minute}}
		gram.Submit(fed.Net, "vo-broker", gk[i%len(gk)].Host, req, 30*time.Second,
			func(_ gram.SubmitReply, err error) { must(err) })
		fed.Eng.RunUntil(fed.Eng.Now() + 2*time.Second)
	}) / jobs / 1e3

	const deploys = 24
	var leases []*sharp.Lease
	m["broker.deploy_us"] = timeSpans(rec, "broker.deploy", deploys, func(i int) {
		site, now := names[i%len(names)], fed.Eng.Now()
		res, err := fed.Deployer.DeploySlice(fmt.Sprintf("probe-%d", i), sm, 0.02, now, now+time.Hour, []string{site})
		must(err)
		leases = append(leases, res.Leases[site]...)
	}) / deploys / 1e3
	m["broker.renew_us"] = timeSpans(rec, "broker.renew", len(leases), func(i int) {
		must(fed.Deployer.RenewLease(sm, leases[i], leases[i].NotAfter+time.Hour))
	}) / float64(len(leases)) / 1e3

	m["servicemgr.reconcile_us"] = timeSpans(rec, "servicemgr.reconcile", 20, func(int) {
		for i := 0; i < 10; i++ {
			mgr.Reconcile()
		}
	}) / (20 * 10) / 1e3

	opts := faultlab.CheckOpts{TTLBound: 2*cfg.Refresh + time.Second, LeaseManagers: []*servicemgr.Manager{mgr}}
	const audits = 50
	m["faultlab.audit_us"] = timeSpans(rec, "faultlab.audit", audits, func(int) {
		if v := faultlab.CheckFederation(fed, opts); len(v) > 0 {
			panic(fmt.Sprintf("probe federation violates %s", v[0]))
		}
	}) / audits / 1e3

	q := mds.Query{Filters: []mds.Filter{{Attr: "os", Op: mds.FEq, Value: "linux"}}}
	m["mds.flat_query_us"] = timeSpans(rec, "mds.flat_query", 20, func(int) {
		for i := 0; i < 20; i++ {
			fed.Index.Eval(q)
		}
	}) / (20 * 20) / 1e3
}

// probeMarket measures the byzantine run's purchase path: an exchange of
// three honest, collateralised sellers stocked at every site.
func probeMarket(rec *recorder, seed int64, m values) {
	cfg := faultlab.DefaultByzantineChaosConfig()
	bz := cfg.Byzantine
	fed := chaosFederation(seed, cfg)
	scores := trust.NewScoreboard(bz.ScoreDecay)
	ex := broker.NewExchange(fed.Eng.ForkRand(), scores)
	ex.SlashPenalty, ex.MinScore = bz.SlashPenalty, bz.MinScore
	sites := fed.JoinedSites()
	for _, s := range sites {
		s.Runtime.Bank = trust.NewBank(s.Spec.Name)
	}
	until := cfg.Horizon + cfg.Converge + time.Hour
	for i := 0; i < bz.HonestBrokers; i++ {
		ag := sharp.NewAgent(identity.NewPrincipal(fmt.Sprintf("honest-%02d", i), fed.Rng))
		for _, s := range sites {
			tk, err := s.Runtime.Authority.IssueTicket(ag.Name, ag.Key(), capability.CPU, bz.StockPerSite, 0, until)
			must(err)
			must(ag.Acquire(tk))
			must(s.Runtime.Bank.Deposit(ag.Name, bz.Deposit))
		}
		ex.AddSeller(ag)
	}
	buyer := identity.NewPrincipal("market-probe", fed.Rng)
	const buys = 30
	m["broker.purchase_us"] = timeSpans(rec, "broker.purchase", buys, func(i int) {
		s, now := sites[i%len(sites)], fed.Eng.Now()
		leases, outcomes, err := ex.Purchase(buyer.Name, buyer.Public(), s.Spec.Name, s.Runtime,
			capability.CPU, bz.ShopAmount, now, now+time.Hour)
		must(err)
		for _, o := range outcomes {
			must(scores.ReportOutcome(o.Seller, o.OK))
		}
		for _, l := range leases {
			s.Runtime.Authority.ReleaseLease(l)
		}
	}) / buys / 1e3

	sb := trust.NewScoreboard(trust.DefaultScoreDecay)
	m["trust.report_ns"] = timeSpans(rec, "trust.report", 10, func(s int) {
		for i := 0; i < 1000; i++ {
			must(sb.ReportOutcome("broker-a", (s+i)%3 != 0))
		}
	}) / (10 * 1000)
}

// ---- per-workload counts and shares --------------------------------

// attribute fills the workload's counts and layer shares into m, which
// already holds the unit costs. Shares are over the untraced repetition
// base; "computed" ones are count × unit cost and may overlap.
func attribute(w *workload, fx *fixture, o options, rec *recorder, base repStats, m values) {
	switch w.name {
	case "e14-leases", "e14-registry":
		attributeE14(fx, o, rec, base, m)
		return
	case "mds-discovery":
		attributeMDS(fx, rec, base, m)
		return
	case "chaos-sweep", "byzantine-sweep":
		attributeSweep(fx, base, m)
	case "cdn-churn":
		attributeCDN(fx, rec, base, m)
	}
	// One span per call: what recording costs this workload.
	spanned := runRep(fx, rec, func(int) string { return "op." + w.name })
	m["trace.overhead_share"] = spanned.wallS/base.wallS - 1
}

// attributeMDS records one repetition of mds-discovery with a span per
// call. The benchmark makes every mds call of this workload itself, so
// those spans are the attribution, measured on the workload's own index.
func attributeMDS(fx *fixture, rec *recorder, base repStats, m values) {
	ix := fx.mds
	f0, p0 := ix.root.FanoutN, ix.root.PrunedN
	spanned := runRep(fx, rec, func(i int) string {
		if fx.calls[i].units == 0 {
			return "mds.refresh"
		}
		return "mds.query." + mdsShapes[i%(len(mdsShapes)+1)-1]
	})
	m["trace.overhead_share"] = spanned.wallS/base.wallS - 1
	m["mds.share"] = float64(rec.selfOf("mds.")) / (spanned.wallS * 1e9)
	m["mds.query_pruned_us"] = rec.mean("mds.query.pruned", time.Microsecond)
	m["mds.query_broad_us"] = rec.mean("mds.query.broad", time.Microsecond)
	m["mds.query_range_us"] = rec.mean("mds.query.range", time.Microsecond)
	if pruned, fanout := float64(ix.root.PrunedN-p0), float64(ix.root.FanoutN-f0); pruned+fanout > 0 {
		m["mds.prune_share"] = pruned / (pruned + fanout)
	}
	ops := math.Max(1, float64(base.done))
	m["mds.query_allocs"] = float64(base.mallocs) / ops
	m["mds.query_kb"] = float64(base.allocBytes) / ops / 1024
}

func attributeE14(fx *fixture, o options, rec *recorder, base repStats, m values) {
	tot := replayE14(o.seed, fx.e14cfg, rec)
	must(checkReplay(tot, fx.e14))
	wallNs, ops := base.wallS*1e9, math.Max(1, float64(base.done))

	m["sim.events_per_op"] = float64(tot.events) / ops
	m["simnet.msgs_per_op"] = float64(tot.registerN) / ops
	if tot.batchVerifiedN > 0 {
		m["identity.batch_dedup_ratio"] = float64(tot.batchSigN) / float64(tot.batchVerifiedN)
	}
	if lookups := tot.sigHits + tot.sigMisses; lookups > 0 {
		m["identity.sigcache_hit_share"] = float64(tot.sigHits) / float64(lookups)
	}
	if seen := tot.prunedN + tot.fanoutN; seen > 0 {
		m["mds.prune_share"] = float64(tot.prunedN) / float64(seen)
	}

	// Every IssueTicket and Sell signs one claim; every memo miss is one
	// ed25519 verify. Those run inside sharp's calls, so they are computed
	// and moved from sharp's measured self time to identity.
	signs := float64(rec.get("sharp.issue").N + rec.get("sharp.sell").N)
	crypto := signs*m["identity.sign_us"]*1e3 + float64(tot.sigMisses)*m["identity.verify_us"]*1e3
	m["identity.share"] = (float64(rec.selfOf("identity.")) + crypto) / wallNs
	m["sharp.share"] = math.Max(0, float64(rec.selfOf("sharp."))-crypto) / wallNs
	m["mds.share"] = float64(rec.selfOf("mds.")) / wallNs
	m["sim.share"] = float64(tot.events) * m["sim.fire_10k_ns"] / wallNs
	m["simnet.share"] = float64(tot.registerN) * math.Max(0, m["simnet.send_ns"]-m["sim.fire_10k_ns"]) / wallNs
	m["trace.overhead_share"] = tot.wall.Seconds()/base.wallS - 1

	t := time.Now()
	scale.Run(o.seed, fx.e14cfg, 2)
	m["perf.speedup_w2"] = base.wallS / time.Since(t).Seconds()
}

// obsCounters are the obs counters a traced chaos run is read through.
var obsCounters = []string{
	"net.msgs_sent", "net.drop.loss", "net.drop.partition", "net.drop.host_down",
	"gram.jobs.submitted", "sharp.tickets.issued", "sharp.redeem.ok", "sharp.renew.ok",
}

func attributeSweep(fx *fixture, base repStats, m values) {
	cfg, profiles := fx.sweepCfg, fx.profiles
	byz := cfg.Byzantine.Enabled() // one cold run per seed instead of warm forks
	cfg.Trace = true

	c := map[string]float64{}
	var spans, retries, trips, attacks, rejected, runs float64
	harvest := func(rep *faultlab.Report) {
		runs++
		for _, name := range obsCounters {
			c[name] += float64(rep.Tracer.Counter(name).Value())
		}
		spans += float64(len(rep.Tracer.Spans()))
		if r := rep.Resilience; r != nil {
			retries += float64(r.Retries)
			trips += float64(r.Trips)
		}
		if b := rep.Byzantine; b != nil {
			attacks += float64(b.ReplayAttempts + b.ForgeAttempts)
			rejected += float64(b.ReplayRejected + b.ForgeRejected)
		}
	}
	t := time.Now()
	for _, s := range fx.seeds {
		// A seed that panics was already counted as a failed op by the
		// untraced repetition; it contributes no counts.
		_ = catch(func() {
			if byz {
				harvest(faultlab.RunChaos(s, profiles[0], cfg))
				return
			}
			// Counters must be read before the seed's next fork rewinds
			// the shared tracer; build-phase counts recur in each profile.
			chaos.ForEachReport(s, 1, profiles, cfg, 1, func(_ int, rep *faultlab.Report) { harvest(rep) })
		})
	}
	tracedWall := time.Since(t).Seconds()

	wallNs, ops := base.wallS*1e9, float64(len(fx.seeds))
	sent, jobs := c["net.msgs_sent"], c["gram.jobs.submitted"]
	m["simnet.msgs_per_op"] = sent / ops
	if sent > 0 {
		m["simnet.drop_share"] = (c["net.drop.loss"] + c["net.drop.partition"] + c["net.drop.host_down"]) / sent
	}
	m["gram.jobs_per_op"] = jobs / ops
	m["resilience.retries_per_op"] = retries / ops
	m["resilience.trips_per_op"] = trips / ops
	m["obs.spans_per_op"] = spans / ops
	m["obs.trace_overhead_share"] = tracedWall/base.wallS - 1
	if attacks > 0 {
		m["sharp.attack_reject_share"] = rejected / attacks
	}

	// Computed shares: count × unit cost over the untraced wall.
	us := func(name string) float64 { return m[name] * 1e3 }
	issued, redeems, renews := c["sharp.tickets.issued"], c["sharp.redeem.ok"], c["sharp.renew.ok"]
	m["core.share"] = ops * m["core.build_ms"] * 1e6 / wallNs
	audits := runs * float64((cfg.Horizon+cfg.Converge)/cfg.AuditEvery)
	m["faultlab.share"] = audits * us("faultlab.audit_us") / wallNs
	m["identity.share"] = (jobs*us("identity.validate_proxy_us") + issued*us("identity.sign_us") +
		(2*redeems+renews)*us("identity.verify_us")) / wallNs
	m["sharp.share"] = (issued*math.Max(0, us("sharp.issue_us")-us("identity.sign_us")) +
		redeems*math.Max(0, us("sharp.redeem_seq_us")-2*us("identity.verify_us")) +
		renews*math.Max(0, us("sharp.renew_us")-us("sharp.issue_us")-us("identity.verify_us"))) / wallNs
	// Messages that are not a GRAM request or reply are soft-state pushes.
	regs := math.Max(0, sent-2*jobs)
	m["mds.share"] = regs * math.Max(0, m["mds.push_ns_per_record"]-m["simnet.send_ns"]) / wallNs
	m["simnet.share"] = sent * math.Max(0, m["simnet.send_ns"]-m["sim.fire_10k_ns"]) / wallNs
	if !byz {
		// The engine is not readable through a chaos Report; what is
		// countable of the kernel is the warm-fork machinery.
		m["sim.share"] = (ops*us("sim.snapshot_us") + runs*us("sim.fork_us")) / wallNs
	}
}

func attributeCDN(fx *fixture, rec *recorder, base repStats, m values) {
	cfg, profiles := cdn.DefaultConfig(), cdn.CurveProfiles()
	var events, requests, served, flows, streams, spans, liveSum, liveN float64
	for _, s := range fx.seeds {
		for _, p := range profiles {
			for _, striped := range []bool{false, true} {
				run := cfg
				run.Striped = striped
				sc := cdn.New(s, run, p, cdnHorizon)
				// Stepping the engine changes nothing it computes; it lets
				// the streams in flight be sampled once a virtual second.
				// A change re-fills every stream beside it, so cost grows
				// with their number: the root mean square is kept.
				for t := time.Second; t <= cdnHorizon; t += time.Second {
					sc.Eng.RunUntil(t)
					if n := sc.Net.ActiveFlows(); n > 0 {
						if striped {
							n *= 3
						}
						liveSum += float64(n * n)
						liveN++
					}
				}
				events += float64(sc.Eng.Processed())
				requests += float64(sc.Stats.Requests)
				served += float64(sc.Stats.Hits + sc.Stats.Coalesced)
				started := float64(sc.Net.Tracer().Counter("net.flows.started").Value())
				flows += started
				if striped {
					started *= 3
				}
				streams += started
				spans += float64(len(sc.Net.Tracer().Spans()))
			}
		}
	}
	wallNs, ops := base.wallS*1e9, math.Max(1, float64(base.done))
	m["sim.events_per_op"] = events / ops
	m["obs.spans_per_op"] = spans / ops
	if requests > 0 {
		m["cdn.hit_share"] = served / requests
	}
	// Each stream is one fluid consumer added and one removed, and every
	// change re-fills the streams in flight beside it: the unit cost is
	// re-measured at the concurrency this workload actually ran at.
	if liveN > 0 {
		live := math.Sqrt(liveSum / liveN)
		m["sim.fluid_change_us"] = probeFluid(rec, max(1, int(live+0.5)))
		m["simnet.flow_us"] = probeFlow(rec, fx.seeds[0], int(live/3+0.5))
	}
	fluid := 2 * streams * m["sim.fluid_change_us"] * 1e3
	m["sim.share"] = (events*m["sim.fire_10k_ns"] + fluid) / wallNs
	m["simnet.share"] = math.Max(0, streams*m["simnet.flow_us"]*1e3/3-fluid) / wallNs
}
