// Package cdn models a CoDeeN-style PlanetLab content-distribution
// overlay on the simnet data plane: proxy nodes on a ring serve a
// Zipf-popular object mix, pulling misses from a single origin either as
// plain single-stream transfers (the Globus GridFTP default on one TCP
// connection) or as striped multipath pulls relayed through sibling
// proxies (stripes + overlay detours). Swept under faultlab loss and
// partition churn, the two modes produce the paper's §5
// striped-vs-single-stream curve as a deterministic experiment: striping
// multiplies loss-limited Mathis throughput, and multipath keeps misses
// flowing when the direct origin path is cut.
//
// Everything is seeded and snapshot-safe: a (seed, config, profile)
// triple fully determines the run, and the whole scenario registers as a
// SnapRoot so fork-vs-cold differential gates hold.
package cdn

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/faultlab"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Config shapes one CDN run.
type Config struct {
	// Proxies is the number of overlay proxy nodes on the ring.
	Proxies int
	// Objects is the catalog size; popularity is Zipf(ZipfS) over it.
	Objects int
	ZipfS   float64
	// Requests is the total number of client requests to arrive, with
	// exponential inter-arrival times of mean MeanIA.
	Requests int
	MeanIA   time.Duration
	// MedianBytes and SizeSigma shape the lognormal object-size draw
	// (sizes are fixed per object, drawn once at build).
	MedianBytes float64
	SizeSigma   float64
	// Striped selects striped multipath pulls (3 stripes: direct plus the
	// two ring siblings as relays, pooled mTCP-style) over single-stream.
	Striped bool
	// OriginBps and ProxyBps are the access-link capacities.
	OriginBps, ProxyBps float64
	// BaseLoss is the ambient WAN loss rate; it makes the Mathis cap the
	// binding constraint so stripe count matters even between faults.
	BaseLoss float64
}

// DefaultConfig returns the canonical experiment shape: 8 proxies, a
// 64-object catalog under a heavy-tailed mix, 400 requests.
func DefaultConfig() Config {
	return Config{
		Proxies:     8,
		Objects:     64,
		ZipfS:       1.2,
		Requests:    400,
		MeanIA:      400 * time.Millisecond,
		MedianBytes: 2e6,
		SizeSigma:   0.5,
		OriginBps:   1.25e7,
		ProxyBps:    1.25e7,
		BaseLoss:    0.01,
	}
}

// Stats accumulates the observable outcome of a run.
type Stats struct {
	// Requests = Hits + Coalesced + Fetches (every arrival is exactly one
	// of: cache hit, rider on an in-flight fetch, or a new fetch).
	Requests, Hits, Coalesced, Fetches int
	// Done + Failed ≤ Fetches (the rest are still in flight at horizon).
	Done, Failed int
	// Bytes is the payload delivered into caches by completed fetches.
	Bytes float64
	// FetchTime sums completed fetch durations.
	FetchTime time.Duration
}

// HitRate returns the fraction of requests served without a new origin
// fetch (cache hits plus coalesced riders).
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(s.Requests)
}

// MeanFetch returns the mean completed-fetch duration.
func (s Stats) MeanFetch() time.Duration {
	if s.Done == 0 {
		return 0
	}
	return s.FetchTime / time.Duration(s.Done)
}

// fetch is one in-flight origin pull; later requests for the same object
// at the same proxy ride on it instead of starting a duplicate.
type fetch struct {
	obj, proxy int
	waiters    int
	begun      time.Duration
	flow       *simnet.Flow
	span       obs.SpanContext
}

// Scenario is one constructed CDN run: topology, request process, fault
// schedule, and accumulating stats. All mutable state hangs off this
// struct, which registers itself as a SnapRoot — the snapshot-safety
// contract the differential fork-vs-cold gate checks.
type Scenario struct {
	Eng *sim.Engine
	Net *simnet.Network
	Inj *faultlab.Injector

	cfg      Config
	names    []string     // proxy i's host and site name
	routes   [][][]string // proxy i's overlay routes from the origin, see New
	rng      *rand.Rand
	zipf     *workload.Zipf
	sizes    []float64
	cache    []map[int]bool
	inflight []map[int]*fetch
	arrived  int

	Stats Stats

	tr *obs.Tracer
}

// New builds the scenario on a fresh engine: origin at the center, the
// proxy ring around it, a faultlab schedule generated from (seed,
// profile) and installed on the bare network, and the first request
// arrival scheduled. Run the engine (or RunUntil a horizon) to execute.
func New(seed int64, cfg Config, profile faultlab.Profile, horizon time.Duration) *Scenario {
	eng := sim.NewEngine(seed)
	net := simnet.New(eng)
	net.BaseLoss = cfg.BaseLoss
	s := &Scenario{Eng: eng, Net: net, cfg: cfg, rng: eng.ForkRand()}
	s.tr = obs.NewTracer(eng)
	net.SetTracer(s.tr)
	s.tr.CounterFunc("cdn.hits", func() uint64 { return uint64(s.Stats.Hits + s.Stats.Coalesced) })
	s.tr.CounterFunc("cdn.misses", func() uint64 { return uint64(s.Stats.Fetches) })
	s.tr.CounterFunc("cdn.fetch_failed", func() uint64 { return uint64(s.Stats.Failed) })

	net.AddSite("origin", 0, 0)
	net.AddHost("origin", "origin", cfg.OriginBps)
	k := cfg.Proxies
	s.names = make([]string, k)
	relays := make([][]string, k)
	for i := range k {
		ang := 2 * math.Pi * float64(i) / float64(k)
		name := "p" + strconv.Itoa(i)
		net.AddSite(name, 30*math.Cos(ang), 30*math.Sin(ang))
		net.AddHost(name, name, cfg.ProxyBps)
		s.names[i] = name
		relays[i] = []string{name}
		s.cache = append(s.cache, make(map[int]bool))
		s.inflight = append(s.inflight, make(map[int]*fetch))
	}
	// A striped fetch's candidate routes: the direct path, then each ring
	// sibling as a relay. Flows keep the slice they are given, so a fetch
	// that finds every route open shares these.
	s.routes = make([][][]string, k)
	for i := range k {
		s.routes[i] = [][]string{nil}
		for _, sib := range [2]int{(i + 1) % k, (i + k - 1) % k} {
			if sib != i {
				s.routes[i] = append(s.routes[i], relays[sib])
			}
		}
	}

	// Object popularity and sizes are drawn from the scenario rng once,
	// up front, so the same seed always yields the same catalog.
	s.zipf = workload.NewZipf(s.rng, cfg.ZipfS, cfg.Objects)
	s.sizes = make([]float64, cfg.Objects)
	for i := range s.sizes {
		s.sizes[i] = float64(workload.LogNormal(s.rng, time.Duration(cfg.MedianBytes), cfg.SizeSigma))
	}

	s.Inj = faultlab.InstallNet(net, faultlab.Generate(seed, profile, s.names, horizon))
	eng.SnapRoot("cdn.scenario", s)
	eng.Schedule(workload.Exp(s.rng, cfg.MeanIA), s.arrive)
	return s
}

// arrive serves one client request at a Zipf-drawn object on a uniform
// proxy, then schedules the next arrival.
func (s *Scenario) arrive() {
	s.arrived++
	if s.arrived < s.cfg.Requests {
		s.Eng.Schedule(workload.Exp(s.rng, s.cfg.MeanIA), s.arrive)
	}
	p := s.rng.Intn(s.cfg.Proxies)
	obj := s.zipf.Draw()
	s.Stats.Requests++
	switch {
	case s.cache[p][obj]:
		s.Stats.Hits++
	case s.inflight[p][obj] != nil:
		s.inflight[p][obj].waiters++
		s.Stats.Coalesced++
	default:
		s.startFetch(p, obj)
	}
}

// startFetch pulls an object from the origin into a proxy's cache:
// single-stream direct, or three pooled stripes fanned across the direct
// path and the two ring siblings as overlay relays.
func (s *Scenario) startFetch(p, obj int) {
	s.Stats.Fetches++
	ft := &fetch{obj: obj, proxy: p, begun: s.Eng.Now()}
	opts := simnet.FlowOpts{Streams: 1}
	if s.cfg.Striped {
		// Overlay routing: stripe across the direct path and the two ring
		// siblings, skipping any route a current partition severs (CoDeeN
		// proxies monitor peer health and route around dead overlay
		// nodes). With every route cut, fall through to a direct attempt
		// whose refusal records the failure.
		routes, open := s.routes[p], 0
		for _, r := range routes {
			if s.reachable(r, p) {
				open++
			}
		}
		paths := routes
		if open < len(routes) {
			paths = make([][]string, 0, open)
			for _, r := range routes {
				if s.reachable(r, p) {
					paths = append(paths, r)
				}
			}
		}
		if len(paths) > 0 {
			opts = simnet.FlowOpts{Streams: 3, Pooled: true, Paths: paths}
		}
	}
	ft.span = s.tr.Begin("cdn.fetch",
		obs.String("proxy", s.names[p]), obs.Int("obj", obj),
		obs.Float("bytes", s.sizes[obj]), obs.Int("streams", opts.Streams))
	fl, err := s.Net.StartFlow("origin", s.names[p], s.sizes[obj], opts,
		func(*simnet.Flow) { s.fetchDone(ft) })
	if err != nil {
		// Refused outright (partitioned or relay down at start).
		s.Stats.Failed++
		ft.span.End(obs.Err(err))
		return
	}
	fl.OnFail = func(_ *simnet.Flow, err error) { s.fetchFail(ft, err) }
	ft.flow = fl
	s.inflight[p][obj] = ft
}

// reachable reports whether no current partition cuts a hop of route
// (relay names) from the origin to proxy p.
func (s *Scenario) reachable(route []string, p int) bool {
	from := "origin"
	for _, r := range route {
		if s.Net.Partitioned(from, r) {
			return false
		}
		from = r
	}
	return !s.Net.Partitioned(from, s.names[p])
}

func (s *Scenario) fetchDone(ft *fetch) {
	delete(s.inflight[ft.proxy], ft.obj)
	s.cache[ft.proxy][ft.obj] = true
	s.Stats.Done++
	s.Stats.Bytes += s.sizes[ft.obj]
	s.Stats.FetchTime += s.Eng.Now() - ft.begun
	ft.span.End(obs.Int("waiters", ft.waiters))
}

func (s *Scenario) fetchFail(ft *fetch, err error) {
	delete(s.inflight[ft.proxy], ft.obj)
	s.Stats.Failed++
	ft.span.End(obs.Err(err))
}

// Mode names the transfer strategy for reports.
func (s *Scenario) Mode() string {
	if s.cfg.Striped {
		return "striped"
	}
	return "single"
}

// Curve runs the striped-vs-single comparison across fault profiles,
// each cell on a private engine, and returns the rendered table — the
// repo's quantitative form of the paper's §5 cooperation claim. workers
// bounds parallelism (cells are independent and deterministic, so the
// table is identical at any worker count).
func Curve(seed int64, cfg Config, profiles []faultlab.Profile, horizon time.Duration, workers int) *metrics.Table {
	t := metrics.NewTable("profile", "mode", "requests", "hit%", "fetches", "done", "failed", "mean-fetch-s", "MB/s")
	type cell struct {
		prof    faultlab.Profile
		striped bool
	}
	var cells []cell
	for _, p := range profiles {
		cells = append(cells, cell{p, false}, cell{p, true})
	}
	rows := make([][]any, len(cells))
	perf.ForEach(len(cells), workers, func(i int) {
		c := cells[i]
		run := cfg
		run.Striped = c.striped
		sc := New(seed, run, c.prof, horizon)
		sc.Eng.RunUntil(horizon)
		st := sc.Stats
		rows[i] = []any{
			c.prof.Name, sc.Mode(), st.Requests, 100 * st.HitRate(),
			st.Fetches, st.Done, st.Failed,
			st.MeanFetch().Seconds(), st.Bytes / horizon.Seconds() / 1e6,
		}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

// CurveProfiles returns the canonical churn sweep `gridlab cdn` runs: no faults, loss/latency churn, and partition-heavy mixes.
func CurveProfiles() []faultlab.Profile {
	// Rates are events/hour; the canonical horizon is 10 minutes, so
	// these land a handful of bursts/cuts per run. Hub joins the origin
	// to the pair pool — cutting a proxy off from the origin is the
	// interesting fault for a pull-through cache.
	quiet := faultlab.Quiet()
	churn := faultlab.Profile{
		Name:     "loss-churn",
		LossRate: 24, ChurnRate: 12,
		MeanBurst: 3 * time.Minute,
		BurstLoss: 0.08, ChurnLatency: 250 * time.Millisecond,
		Hub: "origin",
	}
	cuts := faultlab.Profile{
		Name:          "partitions",
		PartitionRate: 18, LossRate: 12,
		MeanCut: 2 * time.Minute, MeanBurst: 3 * time.Minute,
		BurstLoss: 0.08,
		Hub:       "origin",
	}
	return []faultlab.Profile{quiet, churn, cuts}
}
