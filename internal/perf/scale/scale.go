// Package scale is the planetary-scale federation experiment (E14): it
// grows a federation past both papers' ambitions — GT2/GT3 "20-50
// sites ... expected to scale to 100s", PlanetLab ~1,000 sites — to
// 1,000 sites / 100k nodes / ~1M leases in one deterministic run, every
// lease concurrent in virtual time (each site's whole population is
// held live at the horizon), exercising the three scale-flat mechanisms
// this milestone added: the sharded MDS (dense regional indexes +
// summary pruning at the root), memoized SHARP verification, and the
// compact O(live) lease store. On the host only the cells in flight
// hold their lease planes: a finished cell keeps its region index and
// its counted Result, nothing else.
//
// Parallelism follows the perf contract: the federation is partitioned
// into regions, each region is one grid cell with its own private
// engine, cells run across a worker pool into preallocated slots, and
// the report reduces slots in region order — so stdout is
// byte-identical at any worker count. Cross-region state (the root
// index) is assembled after the barrier from per-region results.
//
// The package reads no wall clock and Run takes none: what a run costs
// on the host is the benchmark's to say (bench/ times Run from outside).
// RegistrationFlatness is the one probe that times anything, and only
// with the clock its caller hands it.
package scale

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/perf"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Config sizes the experiment.
type Config struct {
	// Sites is the federation size; NodesPerSite the sensor records each
	// site registers; LeasesPerSite the leases each site's service
	// managers redeem and hold live.
	Sites, NodesPerSite, LeasesPerSite int
	// Regions is the MDS shard count (one parallel cell per region).
	Regions int
	// Batch is the RedeemBatch size.
	Batch int
	// RefreshInterval is the MDS soft-state push period.
	RefreshInterval time.Duration
	// Windows is how many streaming metric windows each cell emits.
	Windows int
}

// DefaultConfig is the full planetary run: 1,000 sites, 100k nodes,
// 1M leases target.
func DefaultConfig() Config {
	return Config{
		Sites:           1000,
		NodesPerSite:    100,
		LeasesPerSite:   1000,
		Regions:         16,
		Batch:           64,
		RefreshInterval: 10 * time.Minute,
		Windows:         4,
	}
}

// Validate reports a config Run cannot use: every count and the refresh
// period must be positive, with no more regions than sites.
func (cfg Config) Validate() error {
	switch {
	case cfg.Sites < 1 || cfg.Regions < 1 || cfg.Regions > cfg.Sites:
		return fmt.Errorf("scale: %d regions over %d sites, want 1 ≤ regions ≤ sites", cfg.Regions, cfg.Sites)
	case min(cfg.NodesPerSite, cfg.LeasesPerSite, cfg.Batch, cfg.Windows) < 1 || cfg.RefreshInterval <= 0:
		return fmt.Errorf("scale: per site %d nodes and %d leases, batch %d, %d windows, refresh %v: want each positive",
			cfg.NodesPerSite, cfg.LeasesPerSite, cfg.Batch, cfg.Windows, cfg.RefreshInterval)
	}
	return nil
}

// growthStep is the virtual time between site joins within a cell.
const growthStep = 20 * time.Second

// releaseEvery / renewEvery pick which leases churn: every 16th redeem
// is released immediately (exercising slot recycling) and every 8th is
// renewed once (exercising the memoized renew path).
const (
	releaseEvery = 16
	renewEvery   = 8
)

// siteState is one site's resource-management stack inside a cell.
type siteState struct {
	auth  *sharp.Authority
	agent *sharp.Agent
	sm    *identity.Principal
	gris  *mds.GRIS
}

// cell is one region's slot: a private engine simulating the region's
// sites end to end. It is the cell engine's SnapRoot, so every struct
// the growth ticker mutates is snapshot-reachable. A cell lives while
// its region runs: once run has counted its Result it cancels every
// pending event and drops sites, so the region index (which keeps the
// engine, and through SnapRoot this struct) is all that outlives it.
type cell struct {
	eng *sim.Engine
	net *simnet.Network
	cfg Config

	regionIdx  int
	regionName string
	regionHost string
	region     *mds.RegionIndex

	siteLo, siteHi int // global site index range [lo, hi)
	nextSite       int // next site to grow (ticker cursor)

	sites []*siteState

	// Streaming window accumulators — reset at each window boundary;
	// only the rendered lines are retained.
	winSites, winLeases, winReleased, winRenewed int
	winSigs, winVerified                         int
	windowSize                                   int

	lines []string

	// Totals.
	grantedN, releasedN, renewedN int
}

// Result is one cell's reduced output plus the live region handle the
// root phase attaches for query fan-out.
type Result struct {
	RegionName string
	Region     *mds.RegionIndex

	Lines []string

	SitesN, NodesLive, RegisterN, SlotsN    int
	GrantedN, LiveN, LeaseSlotsN, ReleasedN int
	RenewedN                                int
	BatchSigN, BatchVerifiedN               int
	SigHits, SigMisses                      int
	InternedKeys                            int
	// KeyFp fingerprints the region's first agent key, making the seed
	// observable in the otherwise purely structural report.
	KeyFp string
	// Events, Digest and Marks fingerprint the cell's events (sim.Engine.Digest).
	Events, Digest uint64
	Marks          []sim.Mark
}

// Report is the whole experiment's outcome: the headline totals and the
// deterministic body lines Render writes.
type Report struct {
	Cfg   Config
	Cells []Result

	SitesN, NodesLiveN, RegisterN int
	GrantedN, LiveN, LeaseSlotsN  int
	ReleasedN, RenewedN           int
	BatchSigN, BatchVerifiedN     int
	MDSSlotsN                     int
	RootLines                     []string
	body                          []string
	// Events and Digest fold the cells' fingerprints in region order.
	Events, Digest uint64
}

// Run executes the experiment: cells in parallel, then the root
// assembly and query phase, then reduction in region order. A cfg that
// fails Validate is a programmer error and panics.
func Run(seed int64, cfg Config, workers int) *Report {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	perSite := (cfg.Sites + cfg.Regions - 1) / cfg.Regions
	results := make([]*Result, cfg.Regions)
	perf.ForEach(cfg.Regions, workers, func(i int) {
		results[i] = newCell(seed, cfg, i, i*perSite, min((i+1)*perSite, cfg.Sites)).run()
	})

	rep := &Report{Cfg: cfg}
	for _, r := range results {
		rep.Cells = append(rep.Cells, *r)
		rep.SitesN += r.SitesN
		rep.NodesLiveN += r.NodesLive
		rep.RegisterN += r.RegisterN
		rep.MDSSlotsN += r.SlotsN
		rep.GrantedN += r.GrantedN
		rep.LiveN += r.LiveN
		rep.LeaseSlotsN += r.LeaseSlotsN
		rep.ReleasedN += r.ReleasedN
		rep.RenewedN += r.RenewedN
		rep.BatchSigN += r.BatchSigN
		rep.BatchVerifiedN += r.BatchVerifiedN
		rep.Events += r.Events
		rep.Digest = sim.Fold(rep.Digest, r.Digest)
	}
	rep.rootPhase(seed)
	rep.reduce()
	return rep
}

// newCell builds one region's cell: its private engine and network, the
// region index, and the cell registered as the engine's SnapRoot.
func newCell(seed int64, cfg Config, regionIdx, lo, hi int) *cell {
	eng := sim.NewEngine(seed*10007 + int64(regionIdx))
	net := simnet.New(eng)
	net.AddSite("R", 0, 0)
	regionName := fmt.Sprintf("R%02d", regionIdx)
	regionHost := regionName + "/index"
	net.AddHost(regionHost, "R", 1e9)

	c := &cell{
		eng: eng, net: net, cfg: cfg,
		regionIdx: regionIdx, regionName: regionName, regionHost: regionHost,
		region: mds.NewRegionIndex(eng, net, regionHost, regionName, nil),
		siteLo: lo, siteHi: hi, nextSite: lo,
	}
	c.windowSize = max((hi-lo+cfg.Windows-1)/cfg.Windows, 1) // a trailing region may hold no site
	eng.SnapRoot("scale.cell", c)
	return c
}

// run simulates the region: sites join on a growth ticker, each bringing
// its node sensors (pushed to the region index over the simulated
// network) and its lease plane (batch-redeemed against a compact-store
// authority). Windowed metrics stream out as lines; no per-event history
// is retained. Once the Result is counted the cell is released: the
// engine cancels every pending event (the growth ticker, each site's
// push, and the registrations still in flight, which alias their
// providers' attribute maps), and with the sites dropped the region index
// (the root phase's handle) reaches no lease plane.
func (c *cell) run() *Result {
	c.eng.NewTicker(growthStep, c.growTick)
	c.eng.RunUntil(time.Duration(c.siteHi-c.siteLo+1)*growthStep + 2*c.cfg.RefreshInterval)
	c.flushWindow() // tail window, if the site count didn't divide evenly

	res := &Result{
		RegionName: c.regionName,
		Region:     c.region,
		Lines:      c.lines,
		SitesN:     len(c.sites),
		NodesLive:  c.region.Live(),
		RegisterN:  c.region.RegisterN,
		SlotsN:     c.region.Slots(),
		GrantedN:   c.grantedN,
		ReleasedN:  c.releasedN,
		RenewedN:   c.renewedN,

		InternedKeys: c.region.Keys(),
	}
	if len(c.sites) > 0 {
		res.KeyFp = fmt.Sprintf("%x", c.sites[0].agent.Key()[:4])
	}
	for _, s := range c.sites {
		res.LiveN += s.auth.LiveLeases()
		res.LeaseSlotsN += s.auth.LeaseSlots()
		res.BatchSigN += s.auth.BatchSigN
		res.BatchVerifiedN += s.auth.BatchVerifiedN
		hits, misses, _ := s.auth.SigCacheStats()
		res.SigHits += hits
		res.SigMisses += misses
	}
	res.Events, res.Digest = c.eng.Digest()
	res.Marks = c.eng.Marks()
	c.eng.CancelAll()
	c.sites = nil
	return res
}

// growTick grows the next site, emitting a window line at boundaries.
func (c *cell) growTick() {
	if c.nextSite >= c.siteHi {
		return
	}
	c.growSite(c.nextSite)
	c.nextSite++
	if grown := c.nextSite - c.siteLo; grown%c.windowSize == 0 {
		c.flushWindow()
	}
}

// growSite brings one site online: sensors registered and pushing to
// the region index, then the site's whole lease population redeemed in
// batches against its authority.
func (c *cell) growSite(global int) {
	cfg := c.cfg
	name := fmt.Sprintf("s%04d", global)
	host := name + "/gk"
	c.net.AddHost(host, "R", 1e8)
	rng := c.eng.ForkRand()

	nm := capability.NewNodeManager(name, c.eng, rng, map[capability.ResourceType]float64{
		capability.CPU: float64(cfg.LeasesPerSite),
	})
	auth := sharp.NewAuthority(c.eng, name, identity.NewPrincipal("auth@"+name, rng), nm,
		map[capability.ResourceType]float64{capability.CPU: float64(cfg.LeasesPerSite)})
	auth.SetOversellFactor(2) // root issue + renewal tickets share the budget
	s := &siteState{
		auth:  auth,
		agent: sharp.NewAgent(identity.NewPrincipal("agent@"+name, rng)),
		sm:    identity.NewPrincipal("sm@"+name, rng),
		gris:  mds.NewGRIS(c.eng, c.net, host),
	}
	c.sites = append(c.sites, s)

	// Node sensors: fill-style providers (alloc-free steady refresh),
	// attribute churn derived from virtual time so every refresh
	// rewrites values deterministically.
	oses := [3]string{"linux", "planetlab", "linux"}
	for ni := 0; ni < cfg.NodesPerSite; ni++ {
		node := ni
		nodeName := fmt.Sprintf("%s/n%03d", name, node)
		s.gris.AddProviderInto(nodeName, func(attrs map[string]string) {
			attrs["region"] = c.regionName
			attrs["site"] = name
			attrs["os"] = oses[node%len(oses)]
			attrs["cpus"] = strconv.Itoa(2 << uint(node%4))
			attrs["load"] = strconv.Itoa((node*7 + int(c.eng.Now()/time.Minute)) % 32)
		})
	}
	s.gris.StartPush(c.regionHost, cfg.RefreshInterval)

	// Lease plane: one root ticket subdivided into leaf tickets, batch
	// redeemed; tickets are transient (dropped after redeem) so only
	// live lease state persists.
	now := c.eng.Now()
	notAfter := now + 24*time.Hour
	root, err := s.auth.IssueTicket(s.agent.Name, s.agent.Key(), capability.CPU,
		float64(cfg.LeasesPerSite), now, notAfter)
	if err != nil {
		panic(fmt.Sprintf("scale: issue root for %s: %v", name, err))
	}
	if err := s.agent.Acquire(root); err != nil {
		panic(fmt.Sprintf("scale: acquire root for %s: %v", name, err))
	}
	batch := make([]*sharp.Ticket, 0, cfg.Batch)
	for sold := 0; sold < cfg.LeasesPerSite; {
		batch = batch[:0]
		for len(batch) < cfg.Batch && sold < cfg.LeasesPerSite {
			subs, err := s.agent.Sell(s.sm.Name, s.sm.Public(), name, capability.CPU, 1, now, notAfter)
			if err != nil {
				panic(fmt.Sprintf("scale: sell at %s: %v", name, err))
			}
			batch = append(batch, subs...)
			sold++
		}
		for _, r := range s.auth.RedeemBatch(batch) {
			if r.Err != nil {
				panic(fmt.Sprintf("scale: redeem at %s: %v", name, r.Err))
			}
			c.grantedN++
			c.winLeases++
			n := c.grantedN
			switch {
			case n%releaseEvery == 0:
				s.auth.ReleaseLease(r.Lease)
				c.releasedN++
				c.winReleased++
			case n%renewEvery == 0:
				rtk, err := s.auth.IssueTicket(s.agent.Name, s.agent.Key(), capability.CPU,
					1, c.eng.Now(), notAfter+time.Hour)
				if err == nil {
					if _, err := s.auth.Renew(r.Lease.ID, rtk); err != nil {
						panic(fmt.Sprintf("scale: renew at %s: %v", name, err))
					}
					c.renewedN++
					c.winRenewed++
				}
			}
		}
	}
	c.winSites++
}

// flushWindow emits one streaming metrics line and resets the window.
func (c *cell) flushWindow() {
	if c.winSites == 0 {
		return
	}
	var sigs, verified int
	for _, s := range c.sites {
		sigs += s.auth.BatchSigN
		verified += s.auth.BatchVerifiedN
	}
	dSigs, dVer := sigs-c.winSigs, verified-c.winVerified
	c.winSigs, c.winVerified = sigs, verified
	ratio := 0.0
	if dVer > 0 {
		ratio = float64(dSigs) / float64(dVer)
	}
	c.lines = append(c.lines, fmt.Sprintf(
		"%s w%02d t=%v sites=%d leases=%d released=%d renewed=%d sigs=%d verified=%d (%.1fx) mds_live=%d",
		c.regionName, len(c.lines), c.eng.Now(), c.winSites, c.winLeases,
		c.winReleased, c.winRenewed, dSigs, dVer, ratio, c.region.Live()))
	c.winSites, c.winLeases, c.winReleased, c.winRenewed = 0, 0, 0, 0
}

// rootPhase assembles the federation root after the cell barrier: a
// fresh engine advanced to the cells' horizon, every region attached,
// every summary absorbed with its soft-state TTL, then a fixed query
// set fanned out to demonstrate (and count) summary pruning.
func (rep *Report) rootPhase(seed int64) {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.AddSite("HQ", 0, 0)
	net.AddHost("root/index", "HQ", 1e9)
	root := mds.NewRootIndex(eng, net, "root/index")

	perSite := (rep.Cfg.Sites + rep.Cfg.Regions - 1) / rep.Cfg.Regions
	horizon := time.Duration(perSite+1)*growthStep + 2*rep.Cfg.RefreshInterval
	eng.RunUntil(horizon)
	for i := range rep.Cells {
		root.AttachRegion(rep.Cells[i].Region)
		root.AbsorbSummary(rep.Cells[i].Region.Summary(2 * rep.Cfg.RefreshInterval))
	}

	midRegion := fmt.Sprintf("R%02d", len(rep.Cells)/2)
	queries := []struct {
		desc string
		q    mds.Query
	}{
		{"os=linux limit 10", mds.Query{Filters: []mds.Filter{{Attr: "os", Op: mds.FEq, Value: "linux"}}, Limit: 10}},
		{"region=" + midRegion, mds.Query{Filters: []mds.Filter{{Attr: "region", Op: mds.FEq, Value: midRegion}}, Limit: 5}},
		{"cpus>=16", mds.Query{Filters: []mds.Filter{{Attr: "cpus", Op: mds.FGe, Value: "16"}}, Limit: 10}},
		{"load<4 limit 20", mds.Query{Filters: []mds.Filter{{Attr: "load", Op: mds.FLt, Value: "4"}}, Limit: 20}},
		{"ghost attr", mds.Query{Filters: []mds.Filter{{Attr: "ghost", Op: mds.FEq, Value: "x"}}}},
	}
	for _, qc := range queries {
		f0, p0, u0 := root.FanoutN, root.PrunedN, root.UnknownN
		reply, err := root.QueryShards(qc.q)
		if err != nil {
			rep.RootLines = append(rep.RootLines, fmt.Sprintf("  %-20s error: %v", qc.desc, err))
			continue
		}
		rep.RootLines = append(rep.RootLines, fmt.Sprintf(
			"  %-20s records=%-4d fanout=%d pruned=%d unknown=%d maxstale=%v",
			qc.desc, len(reply.Records), root.FanoutN-f0, root.PrunedN-p0, root.UnknownN-u0, reply.MaxStale))
	}
}

// reduce builds the deterministic report body from the cell slots in
// region order.
func (rep *Report) reduce() {
	cfg := rep.Cfg
	var b []string
	b = append(b, fmt.Sprintf("scale: %d sites / %d regions / %d nodes, lease target %d (batch %d, refresh %v)",
		cfg.Sites, cfg.Regions, cfg.Sites*cfg.NodesPerSite, cfg.Sites*cfg.LeasesPerSite, cfg.Batch, cfg.RefreshInterval))
	b = append(b, "")
	for i := range rep.Cells {
		b = append(b, rep.Cells[i].Lines...)
	}
	b = append(b, "")
	for i := range rep.Cells {
		r := &rep.Cells[i]
		ratio := 0.0
		if r.BatchVerifiedN > 0 {
			ratio = float64(r.BatchSigN) / float64(r.BatchVerifiedN)
		}
		b = append(b, fmt.Sprintf(
			"region %s [%s]: sites=%d mds_live=%d mds_slots=%d regs=%d keys=%d leases: granted=%d live=%d slots=%d released=%d renewed=%d sigs=%d/%d (%.1fx)",
			r.RegionName, r.KeyFp, r.SitesN, r.NodesLive, r.SlotsN, r.RegisterN, r.InternedKeys,
			r.GrantedN, r.LiveN, r.LeaseSlotsN, r.ReleasedN, r.RenewedN,
			r.BatchSigN, r.BatchVerifiedN, ratio))
	}
	b = append(b, "")
	ratio := 0.0
	if rep.BatchVerifiedN > 0 {
		ratio = float64(rep.BatchSigN) / float64(rep.BatchVerifiedN)
	}
	b = append(b, fmt.Sprintf(
		"federation: sites=%d mds_live=%d mds_slots=%d registrations=%d leases: granted=%d live=%d slots=%d released=%d renewed=%d batch_sigs=%d verified=%d (%.1fx amortized)",
		rep.SitesN, rep.NodesLiveN, rep.MDSSlotsN, rep.RegisterN,
		rep.GrantedN, rep.LiveN, rep.LeaseSlotsN, rep.ReleasedN, rep.RenewedN,
		rep.BatchSigN, rep.BatchVerifiedN, ratio))
	b = append(b, "", "root queries (summary-pruned fan-out):")
	b = append(b, rep.RootLines...)
	rep.body = b
}

// Render writes the deterministic report (byte-identical at any worker
// count and across runs of the same seed).
func (rep *Report) Render(w io.Writer) {
	fmt.Fprintln(w, strings.Join(rep.body, "\n"))
}

// RegistrationFlatness is the scale-flat probe for the acceptance gate:
// per-record cost of steady-state soft-state refresh — the load that
// dominates a long-running federation — measured against a small
// (`window`-site) index and against a full (`nSites`-site) index.
// Each probe builds its index, then times refresh passes (in-place slot
// rewrite of `window` sites' records), taking the fastest of three so
// GC and scheduler noise don't swamp the comparison. A scale-flat index
// keeps the two within a few percent; the one-big-map failure mode
// (per-refresh allocation, whole-registry work on the hot path) shows
// up as atLargeNs pulling away from atSmallNs. Returns per-record
// nanoseconds for both index sizes (0,0 when clock is nil or the sizes
// don't fit).
func RegistrationFlatness(seed int64, cfg Config, nSites, window int, clock func() time.Duration) (atSmallNs, atLargeNs float64) {
	if clock == nil || window <= 0 || nSites < 2*window {
		return 0, 0
	}
	probe := func(total int) float64 {
		eng := sim.NewEngine(seed)
		net := simnet.New(eng)
		net.AddSite("R", 0, 0)
		net.AddHost("probe/index", "R", 1e9)
		rg := mds.NewRegionIndex(eng, net, "probe/index", "probe", nil)
		attrs := make(map[string]string, 5)
		registerSite := func(si int) {
			for ni := 0; ni < cfg.NodesPerSite; ni++ {
				attrs["region"] = "probe"
				attrs["site"] = fmt.Sprintf("s%04d", si)
				attrs["os"] = "linux"
				attrs["cpus"] = strconv.Itoa(2 << uint(ni%4))
				attrs["load"] = strconv.Itoa((ni*7 + si) % 32)
				if err := rg.RegisterRecord(mds.Registration{Rec: mds.Record{
					Name:   fmt.Sprintf("s%04d/n%03d", si, ni),
					Source: fmt.Sprintf("s%04d", si),
					Attrs:  attrs,
				}, TTL: time.Hour}); err != nil {
					panic(fmt.Sprintf("scale: flatness probe: %v", err))
				}
			}
		}
		for si := 0; si < total; si++ {
			registerSite(si) // build, untimed
		}
		best := 0.0
		recs := float64(window * cfg.NodesPerSite)
		for round := 0; round < 3; round++ {
			t0 := clock()
			for si := 0; si < window; si++ {
				registerSite(si) // steady-state refresh, in place
			}
			if ns := float64((clock() - t0).Nanoseconds()) / recs; best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	return probe(window), probe(nSites)
}
