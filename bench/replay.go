package main

import (
	"fmt"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/perf/scale"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The E14 replay is the benchmark's own copy of scale's site-growth loop
// over the public identity / sharp / mds / capability / sim / simnet
// APIs, with a span around every call into a layer. It exists because
// scale.Run is one opaque call: the replay is where its seconds get
// attributed. It must reproduce scale.Run's totals exactly (checkReplay)
// or the traced run fails — a replay that drifted from the program
// would attribute the wrong work.

// These mirror scale's unexported constants.
const (
	replayGrowthStep   = 20 * time.Second
	replayReleaseEvery = 16
	replayRenewEvery   = 8
)

// replayTotals are the counters the replay must share with scale.Run,
// plus what only the replay can read (engine events, signature memo,
// keys generated).
type replayTotals struct {
	sites, nodesLive, registerN      int
	granted, live, released, renewed int
	batchSigN, batchVerifiedN        int
	sigHits, sigMisses               int
	rootLines                        []string

	events           uint64
	keygens          int
	fanoutN, prunedN int
	wall             time.Duration
}

type replaySite struct {
	auth  *sharp.Authority
	agent *sharp.Agent
	sm    *identity.Principal
	gris  *mds.GRIS
}

// replayCell is one region's private engine and sites. It is the cell
// engine's SnapRoot like scale's own cell, so everything the growth
// ticker mutates is snapshot-reachable.
type replayCell struct {
	eng *sim.Engine
	net *simnet.Network
	cfg scale.Config
	rec *recorder // host-time spans; the replay is never snapshotted or forked

	regionName, regionHost string
	region                 *mds.RegionIndex

	siteHi, nextSite int
	sites            []*replaySite
	leases           []*sharp.Lease

	granted, released, renewed, keygens int
}

func replayE14(seed int64, cfg scale.Config, rec *recorder) replayTotals {
	start := time.Now()
	var tot replayTotals
	perSite := (cfg.Sites + cfg.Regions - 1) / cfg.Regions
	var regions []*mds.RegionIndex
	for i := 0; i < cfg.Regions; i++ {
		lo, hi := i*perSite, min((i+1)*perSite, cfg.Sites)
		rec.op()
		c := replayRunCell(seed, cfg, i, lo, hi, rec)
		regions = append(regions, c.region)
		tot.sites += len(c.sites)
		tot.nodesLive += c.region.Live()
		tot.registerN += c.region.RegisterN
		tot.granted += c.granted
		tot.released += c.released
		tot.renewed += c.renewed
		tot.keygens += c.keygens
		tot.events += c.eng.Processed()
		for _, s := range c.sites {
			tot.live += s.auth.LiveLeases()
			tot.batchSigN += s.auth.BatchSigN
			tot.batchVerifiedN += s.auth.BatchVerifiedN
			hits, misses, _ := s.auth.SigCacheStats()
			tot.sigHits += hits
			tot.sigMisses += misses
		}
	}
	rec.op()
	replayRootPhase(seed, cfg, regions, rec, &tot)
	tot.wall = time.Since(start)
	return tot
}

func replayRunCell(seed int64, cfg scale.Config, regionIdx, lo, hi int, rec *recorder) *replayCell {
	eng := sim.NewEngine(seed*10007 + int64(regionIdx))
	net := simnet.New(eng)
	net.AddSite("R", 0, 0)
	regionName := fmt.Sprintf("R%02d", regionIdx)
	regionHost := regionName + "/index"
	net.AddHost(regionHost, "R", 1e9)

	c := &replayCell{
		eng: eng, net: net, cfg: cfg, rec: rec,
		regionName: regionName, regionHost: regionHost,
		region: mds.NewRegionIndex(eng, net, regionHost, regionName, nil),
		siteHi: hi, nextSite: lo,
	}
	// Same registration path as the index's own handler, with a span
	// around the one call it makes.
	net.Host(regionHost).Handle(mds.SvcRegister, func(_ string, raw any) (any, error) {
		reg, ok := raw.(mds.Registration)
		if !ok {
			return nil, fmt.Errorf("replay: bad registration payload %T", raw)
		}
		rec.begin("mds.register")
		err := c.region.RegisterRecord(reg)
		rec.end()
		return nil, err
	})
	eng.SnapRoot("bench.replay", c)

	eng.NewTicker(replayGrowthStep, c.growTick)
	growth := time.Duration(hi-lo+1) * replayGrowthStep
	rec.do("kernel.run", func() { eng.RunUntil(growth + 2*cfg.RefreshInterval) })
	return c
}

func (c *replayCell) growTick() {
	if c.nextSite >= c.siteHi {
		return
	}
	c.rec.begin("scale.grow_site")
	c.growSite(c.nextSite)
	c.rec.end()
	c.nextSite++
}

func (c *replayCell) growSite(global int) {
	cfg, rec := c.cfg, c.rec
	name := fmt.Sprintf("s%04d", global)
	host := name + "/gk"
	c.net.AddHost(host, "R", 1e8)
	rng := c.eng.ForkRand()
	principal := func(who string) *identity.Principal {
		rec.begin("identity.keygen")
		p := identity.NewPrincipal(who, rng)
		rec.end()
		c.keygens++
		return p
	}

	rec.begin("capability.new_node_manager")
	nm := capability.NewNodeManager(name, c.eng, rng, map[capability.ResourceType]float64{
		capability.CPU: float64(cfg.LeasesPerSite),
	})
	rec.end()
	authKey := principal("auth@" + name)
	rec.begin("sharp.new_authority")
	auth := sharp.NewAuthority(c.eng, name, authKey, nm,
		map[capability.ResourceType]float64{capability.CPU: float64(cfg.LeasesPerSite)})
	auth.SetCompactLeases(true)
	auth.SetOversellFactor(2)
	rec.end()
	s := &replaySite{auth: auth}
	s.agent = sharp.NewAgent(principal("agent@" + name))
	s.sm = principal("sm@" + name)
	rec.do("mds.new_gris", func() { s.gris = mds.NewGRIS(c.eng, c.net, host) })
	c.sites = append(c.sites, s)

	oses := [3]string{"linux", "planetlab", "linux"}
	rec.begin("mds.add_providers")
	for ni := 0; ni < cfg.NodesPerSite; ni++ {
		node := ni
		nodeName := fmt.Sprintf("%s/n%03d", name, node)
		s.gris.AddProviderInto(nodeName, func(attrs map[string]string) {
			rec.begin("scale.fill")
			attrs["region"] = c.regionName
			attrs["site"] = name
			attrs["os"] = oses[node%len(oses)]
			attrs["cpus"] = fmt.Sprint(2 << uint(node%4))
			attrs["load"] = fmt.Sprint((node*7 + int(c.eng.Now()/time.Minute)) % 32)
			rec.end()
		})
	}
	rec.end()
	rec.do("mds.start_push", func() { s.gris.StartPush(c.regionHost, cfg.RefreshInterval) })

	now := c.eng.Now()
	notAfter := now + 24*time.Hour
	rec.begin("sharp.issue")
	root, err := s.auth.IssueTicket(s.agent.Name, s.agent.Key(), capability.CPU,
		float64(cfg.LeasesPerSite), now, notAfter)
	rec.end()
	if err != nil {
		panic(fmt.Sprintf("replay: issue root for %s: %v", name, err))
	}
	rec.begin("sharp.acquire")
	err = s.agent.Acquire(root)
	rec.end()
	if err != nil {
		panic(fmt.Sprintf("replay: acquire root for %s: %v", name, err))
	}
	batch := make([]*sharp.Ticket, 0, cfg.Batch)
	for sold := 0; sold < cfg.LeasesPerSite; {
		batch = batch[:0]
		for len(batch) < cfg.Batch && sold < cfg.LeasesPerSite {
			rec.begin("sharp.sell")
			subs, err := s.agent.Sell(s.sm.Name, s.sm.Public(), name, capability.CPU, 1, now, notAfter)
			rec.end()
			if err != nil {
				panic(fmt.Sprintf("replay: sell at %s: %v", name, err))
			}
			batch = append(batch, subs...)
			sold++
		}
		rec.begin("sharp.redeem_batch")
		results := s.auth.RedeemBatch(batch)
		rec.end()
		for _, r := range results {
			if r.Err != nil {
				panic(fmt.Sprintf("replay: redeem at %s: %v", name, r.Err))
			}
			c.granted++
			switch n := c.granted; {
			case n%replayReleaseEvery == 0:
				rec.begin("sharp.release")
				s.auth.ReleaseLease(r.Lease)
				rec.end()
				c.released++
			case n%replayRenewEvery == 0:
				rec.begin("sharp.issue")
				rtk, err := s.auth.IssueTicket(s.agent.Name, s.agent.Key(), capability.CPU,
					1, c.eng.Now(), notAfter+time.Hour)
				rec.end()
				if err == nil {
					rec.begin("sharp.renew")
					_, err := s.auth.Renew(r.Lease.ID, rtk)
					rec.end()
					if err != nil {
						panic(fmt.Sprintf("replay: renew at %s: %v", name, err))
					}
					c.renewed++
				}
			default:
				c.leases = append(c.leases, r.Lease)
			}
		}
	}
}

// replayRootPhase mirrors scale's root assembly and its five queries,
// rendering the same lines so they can be compared byte for byte.
func replayRootPhase(seed int64, cfg scale.Config, regions []*mds.RegionIndex, rec *recorder, tot *replayTotals) {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("root/index", "HQ", 1e9)
	root := mds.NewRootIndex(eng, net, "root/index")

	perSite := (cfg.Sites + cfg.Regions - 1) / cfg.Regions
	eng.RunUntil(time.Duration(perSite+1)*replayGrowthStep + 2*cfg.RefreshInterval)
	for _, rg := range regions {
		root.AttachRegion(rg)
		rec.begin("mds.summary")
		sum := rg.Summary(2 * cfg.RefreshInterval)
		rec.end()
		rec.do("mds.absorb_summary", func() { root.AbsorbSummary(sum) })
	}
	mid := fmt.Sprintf("R%02d", len(regions)/2)
	queries := []struct {
		desc string
		q    mds.Query
	}{
		{"os=linux limit 10", mds.Query{Filters: []mds.Filter{{Attr: "os", Op: mds.FEq, Value: "linux"}}, Limit: 10}},
		{"region=" + mid, mds.Query{Filters: []mds.Filter{{Attr: "region", Op: mds.FEq, Value: mid}}, Limit: 5}},
		{"cpus>=16", mds.Query{Filters: []mds.Filter{{Attr: "cpus", Op: mds.FGe, Value: "16"}}, Limit: 10}},
		{"load<4 limit 20", mds.Query{Filters: []mds.Filter{{Attr: "load", Op: mds.FLt, Value: "4"}}, Limit: 20}},
		{"ghost attr", mds.Query{Filters: []mds.Filter{{Attr: "ghost", Op: mds.FEq, Value: "x"}}}},
	}
	for _, qc := range queries {
		f0, p0, u0 := root.FanoutN, root.PrunedN, root.UnknownN
		rec.begin("mds.query")
		reply, err := root.QueryShards(qc.q)
		rec.end()
		if err != nil {
			tot.rootLines = append(tot.rootLines, fmt.Sprintf("  %-20s error: %v", qc.desc, err))
			continue
		}
		tot.rootLines = append(tot.rootLines, fmt.Sprintf(
			"  %-20s records=%-4d fanout=%d pruned=%d unknown=%d maxstale=%v",
			qc.desc, len(reply.Records), root.FanoutN-f0, root.PrunedN-p0, root.UnknownN-u0, reply.MaxStale))
	}
	tot.fanoutN, tot.prunedN = root.FanoutN, root.PrunedN
}

// checkReplay holds the replay to scale.Run's own report.
func checkReplay(tot replayTotals, rep *scale.Report) error {
	type pair struct {
		name      string
		got, want int
	}
	for _, p := range []pair{
		{"sites", tot.sites, rep.SitesN},
		{"live nodes", tot.nodesLive, rep.NodesLiveN},
		{"registrations", tot.registerN, rep.RegisterN},
		{"granted", tot.granted, rep.GrantedN},
		{"live leases", tot.live, rep.LiveN},
		{"released", tot.released, rep.ReleasedN},
		{"renewed", tot.renewed, rep.RenewedN},
		{"batch sigs", tot.batchSigN, rep.BatchSigN},
		{"batch verified", tot.batchVerifiedN, rep.BatchVerifiedN},
		{"root query lines", len(tot.rootLines), len(rep.RootLines)},
	} {
		if p.got != p.want {
			return fmt.Errorf("replay %s = %d, scale.Run reported %d", p.name, p.got, p.want)
		}
	}
	for i, line := range tot.rootLines {
		if line != rep.RootLines[i] {
			return fmt.Errorf("replay root query %q, scale.Run reported %q", line, rep.RootLines[i])
		}
	}
	return nil
}
