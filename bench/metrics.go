package main

// metric is one named number the benchmark prints. Bound is how much
// worse (as a share of the parent's median) an end-to-end metric may get
// before a change counts as a regression; per-layer metrics have none.
// Moves records, for a layer metric, which end-to-end metric it should
// move on which workload — written down before measuring.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Def    string
	Moves  []move
}

type move struct{ Metric, Workload string }

// endToEnd is what a researcher waiting on the run sees: wall-clock,
// memory, and (through the verdict's correct/attempted/failed) whether
// it finished with the same bytes.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Def: "wall-clock of the fastest timed repetition, tracing off"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Def: "successful ops per second of that repetition (the workload's op)"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Def: "median time of one call, measured around it from outside, in the repetition where it is lowest"},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, Def: "90th percentile of one repetition's call times (80 calls on chaos-sweep, 100 on byzantine-sweep, 120 on cdn-churn, 1080 on mds-discovery), in the repetition where it is lowest; the E14 workloads make one call per repetition, so there it equals op_ms_p50"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Def: "heap allocations (MemStats.Mallocs delta) per successful op, median over repetitions"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05, Def: "bytes allocated (MemStats.TotalAlloc delta) per repetition, median"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Def: "the measuring process's VmHWM when the run ends"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Def: "fixtures plus one untimed 1/8-size warm-up, median of three rounds"},
}

func mv(metric string, workloads ...string) []move {
	var out []move
	for _, w := range workloads {
		out = append(out, move{metric, w})
	}
	return out
}

func join(ms ...[]move) []move {
	var out []move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

// perLayer is the traced run's output: unit costs of each layer's public
// calls, exact counts read from public counters, and each layer's share
// of the workload's untraced wall. A share is "measured" where the
// benchmark itself makes the calls (E14 replay, mds-discovery) and
// "computed" (count × unit cost) elsewhere. A metric reads 0 on a
// workload that does not exercise it or does not expose the counter.
var perLayer = []metric{
	// sim
	{Name: "sim.fire_10k_ns", Unit: "ns", Better: "lower", Def: "ns per event: schedule 10k events on a fresh engine and drain", Moves: mv("wall_s", "e14-registry", "cdn-churn")},
	{Name: "sim.fire_100k_ns", Unit: "ns", Better: "lower", Def: "same at 100k events (heap depth)", Moves: mv("wall_s", "e14-registry")},
	{Name: "sim.fluid_change_us", Unit: "us", Better: "lower", Def: "µs per consumer add or remove on a CDN-shaped fluid system of 24 consumers (on cdn-churn: of as many as the workload keeps in flight)", Moves: mv("wall_s", "cdn-churn")},
	{Name: "sim.snapshot_us", Unit: "us", Better: "lower", Def: "Engine.Snapshot of a built 6-site hybrid federation", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "sim.fork_us", Unit: "us", Better: "lower", Def: "Snapshot.Fork of the same federation", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower", Def: "engine events processed per op, where the engine is the benchmark's to read (E14 replay, CDN cells)", Moves: mv("wall_s", "cdn-churn", "e14-registry")},
	{Name: "sim.share", Unit: "share", Better: "lower", Def: "computed: events × sim.fire_10k_ns (+ fluid changes × sim.fluid_change_us on cdn-churn) over untraced wall", Moves: mv("wall_s", "cdn-churn", "e14-registry")},
	// simnet
	{Name: "simnet.send_ns", Unit: "ns", Better: "lower", Def: "Network.Send plus delivery of one message to a no-op handler", Moves: mv("wall_s", "e14-registry")},
	{Name: "simnet.call_us", Unit: "us", Better: "lower", Def: "Network.Call round trip to an echo handler", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "simnet.flow_us", Unit: "us", Better: "lower", Def: "CDN-style 3-stream striped pull, start to done, alone on the network (on cdn-churn: beside as many pulls as the workload keeps in flight); includes the fluid re-allocation it triggers", Moves: mv("wall_s", "cdn-churn")},
	{Name: "simnet.msgs_per_op", Unit: "count", Better: "lower", Def: "messages sent per op (net.msgs_sent; registrations on E14)", Moves: mv("wall_s", "e14-registry", "chaos-sweep")},
	{Name: "simnet.drop_share", Unit: "share", Better: "lower", Def: "messages dropped (loss, partition, host down) over sent"},
	{Name: "simnet.share", Unit: "share", Better: "lower", Def: "computed: messages × (simnet.send_ns − sim.fire_10k_ns) over untraced wall; on cdn-churn streams × simnet.flow_us/3 net of sim.share's fluid part", Moves: mv("wall_s", "e14-registry")},
	// identity
	{Name: "identity.keygen_us", Unit: "us", Better: "lower", Def: "identity.NewPrincipal", Moves: mv("wall_s", "chaos-sweep", "byzantine-sweep")},
	{Name: "identity.sign_us", Unit: "us", Better: "lower", Def: "Principal.Sign of a claim-sized message", Moves: join(mv("wall_s", "e14-leases", "byzantine-sweep"), mv("ops_per_s", "e14-leases"))},
	{Name: "identity.verify_us", Unit: "us", Better: "lower", Def: "Principal.Verify of the same", Moves: join(mv("wall_s", "e14-leases", "byzantine-sweep"), mv("ops_per_s", "e14-leases"))},
	{Name: "identity.validate_proxy_us", Unit: "us", Better: "lower", Def: "Verifier.Validate of a user certificate plus one proxy", Moves: join(mv("wall_s", "chaos-sweep"), mv("op_ms_p90", "chaos-sweep"))},
	{Name: "identity.batch_dedup_ratio", Unit: "ratio", Better: "higher", Def: "link signatures presented to RedeemBatch over ed25519 verifies actually run", Moves: mv("wall_s", "e14-leases")},
	{Name: "identity.sigcache_hit_share", Unit: "share", Better: "higher", Def: "authority signature-memo hits over lookups", Moves: mv("wall_s", "e14-leases")},
	{Name: "identity.share", Unit: "share", Better: "lower", Def: "computed: keygens, signs and verifies × their unit costs over untraced wall", Moves: mv("wall_s", "e14-leases", "chaos-sweep", "byzantine-sweep")},
	// sharp
	{Name: "sharp.issue_us", Unit: "us", Better: "lower", Def: "Authority.IssueTicket", Moves: mv("wall_s", "e14-leases", "byzantine-sweep")},
	{Name: "sharp.sell_us", Unit: "us", Better: "lower", Def: "Agent.Sell of one unit from a stocked root ticket", Moves: mv("wall_s", "e14-leases")},
	{Name: "sharp.redeem_batch_us", Unit: "us", Better: "lower", Def: "RedeemBatch per ticket: 64 tickets, E14 chain shape", Moves: join(mv("wall_s", "e14-leases"), mv("ops_per_s", "e14-leases"))},
	{Name: "sharp.redeem_seq_us", Unit: "us", Better: "lower", Def: "Authority.Redeem, sequential, distinct chains", Moves: join(mv("wall_s", "byzantine-sweep"), mv("op_ms_p90", "byzantine-sweep"))},
	{Name: "sharp.renew_us", Unit: "us", Better: "lower", Def: "IssueTicket plus Authority.Renew of a live lease", Moves: mv("wall_s", "e14-leases", "chaos-sweep")},
	{Name: "sharp.release_ns", Unit: "ns", Better: "lower", Def: "Authority.ReleaseLease, compact store", Moves: mv("wall_s", "e14-leases")},
	{Name: "sharp.bookkeeping_ns", Unit: "ns", Better: "lower", Def: "RedeemBatch per ticket net of as many bare ed25519 verifies timed right beside it", Moves: mv("wall_s", "e14-leases")},
	{Name: "sharp.heap_bytes_per_lease", Unit: "B", Better: "lower", Def: "live heap per held lease, compact store, measured by GC before and after", Moves: mv("peak_rss_mb", "e14-leases")},
	{Name: "sharp.attack_reject_share", Unit: "share", Better: "higher", Def: "replay and forgery attempts rejected over attempted (must be 1)"},
	{Name: "sharp.share", Unit: "share", Better: "lower", Def: "measured self time of the replay's sharp calls net of identity's computed part (E14); computed elsewhere", Moves: mv("wall_s", "e14-leases", "byzantine-sweep")},
	// mds
	{Name: "mds.register_ns", Unit: "ns", Better: "lower", Def: "RegionIndex.RegisterRecord, in-place refresh", Moves: mv("wall_s", "e14-registry")},
	{Name: "mds.register_allocs", Unit: "count", Better: "lower", Def: "allocations per in-place refresh", Moves: mv("alloc_mb", "e14-registry")},
	{Name: "mds.push_ns_per_record", Unit: "ns", Better: "lower", Def: "GRIS push: provider fill, Send, handleRegister, per record", Moves: mv("wall_s", "e14-registry", "chaos-sweep")},
	{Name: "mds.query_pruned_us", Unit: "us", Better: "lower", Def: "QueryShards that summaries prune to one region", Moves: join(mv("op_ms_p90", "mds-discovery"), mv("ops_per_s", "mds-discovery"))},
	{Name: "mds.query_broad_us", Unit: "us", Better: "lower", Def: "QueryShards that fans out to every region", Moves: join(mv("op_ms_p90", "mds-discovery"), mv("ops_per_s", "mds-discovery"))},
	{Name: "mds.query_range_us", Unit: "us", Better: "lower", Def: "QueryShards with a numeric range filter", Moves: join(mv("op_ms_p90", "mds-discovery"), mv("ops_per_s", "mds-discovery"))},
	{Name: "mds.query_allocs", Unit: "count", Better: "lower", Def: "allocations per query, mean over the shapes", Moves: mv("allocs_per_op", "mds-discovery")},
	{Name: "mds.query_kb", Unit: "KB", Better: "lower", Def: "bytes allocated per query, mean over the shapes", Moves: mv("alloc_mb", "mds-discovery")},
	{Name: "mds.prune_share", Unit: "share", Better: "higher", Def: "regions pruned by summary over pruned plus consulted", Moves: mv("ops_per_s", "mds-discovery")},
	{Name: "mds.flat_query_us", Unit: "us", Better: "lower", Def: "flat GIIS.Eval on the chaos federation's index", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "mds.register_flatness", Unit: "ratio", Better: "lower", Def: "scale.RegistrationFlatness: per-record refresh cost at 64 sites over cost at 8"},
	{Name: "mds.share", Unit: "share", Better: "lower", Def: "measured self time of register and query calls (E14 replay, mds-discovery); computed elsewhere", Moves: mv("wall_s", "e14-registry", "mds-discovery", "chaos-sweep")},
	// rsl / gsi / gram
	{Name: "rsl.parse_ns", Unit: "ns", Better: "lower", Def: "rsl.Parse of the chaos probe job", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "gsi.admit_us", Unit: "us", Better: "lower", Def: "SitePolicy.Admit: authenticate a proxy chain and map it", Moves: join(mv("wall_s", "chaos-sweep"), mv("op_ms_p90", "chaos-sweep"))},
	{Name: "gram.submit_us", Unit: "us", Better: "lower", Def: "gram.Submit through the network to accepted", Moves: join(mv("wall_s", "chaos-sweep"), mv("op_ms_p90", "chaos-sweep"))},
	{Name: "gram.jobs_per_op", Unit: "count", Better: "lower", Def: "GRAM jobs submitted per op (gram.jobs.submitted)", Moves: mv("wall_s", "chaos-sweep")},
	// broker / servicemgr / resilience / trust
	{Name: "broker.deploy_us", Unit: "us", Better: "lower", Def: "Deployer.DeploySlice on one site", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "broker.renew_us", Unit: "us", Better: "lower", Def: "Deployer.RenewLease", Moves: join(mv("wall_s", "chaos-sweep"), mv("op_ms_p90", "chaos-sweep"))},
	{Name: "broker.purchase_us", Unit: "us", Better: "lower", Def: "Exchange.Purchase from three honest sellers, redeemed", Moves: join(mv("wall_s", "byzantine-sweep"), mv("op_ms_p90", "byzantine-sweep"))},
	{Name: "servicemgr.reconcile_us", Unit: "us", Better: "lower", Def: "Manager.Reconcile at full strength", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "resilience.retries_per_op", Unit: "count", Better: "lower", Def: "retries the shared executor scheduled per op", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "resilience.trips_per_op", Unit: "count", Better: "lower", Def: "breaker trips per op"},
	{Name: "trust.report_ns", Unit: "ns", Better: "lower", Def: "Scoreboard.ReportOutcome", Moves: mv("wall_s", "byzantine-sweep")},
	// core / faultlab / cdn / obs / perf
	{Name: "core.build_ms", Unit: "ms", Better: "lower", Def: "core.Build of the 6-site hybrid chaos federation", Moves: join(mv("wall_s", "chaos-sweep", "byzantine-sweep"), mv("op_ms_p90", "chaos-sweep"))},
	{Name: "core.share", Unit: "share", Better: "lower", Def: "computed: builds × core.build_ms over untraced wall", Moves: mv("wall_s", "chaos-sweep", "byzantine-sweep")},
	{Name: "faultlab.audit_us", Unit: "us", Better: "lower", Def: "faultlab.CheckFederation on the built federation", Moves: mv("wall_s", "chaos-sweep")},
	{Name: "faultlab.share", Unit: "share", Better: "lower", Def: "computed: audits × faultlab.audit_us over untraced wall", Moves: mv("wall_s", "chaos-sweep", "byzantine-sweep")},
	{Name: "cdn.hit_share", Unit: "share", Better: "higher", Def: "requests served without a new origin fetch"},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: "lower", Def: "sweep wall with ChaosConfig.Trace on over off, minus 1"},
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower", Def: "obs spans recorded per op with tracing on"},
	{Name: "perf.speedup_w2", Unit: "ratio", Better: "higher", Def: "scale.Run wall at workers 1 over workers 2; diagnostic, moves no end-to-end metric (workers = 1)"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Def: "wall of the repetition recorded with spans (the replay on E14) over the untraced one, minus 1"},
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestDoc struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// manifest is BENCHMARK.json as these tables define it; the smoke test
// holds the committed file to it.
func manifest() manifestDoc {
	doc := manifestDoc{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, manifestMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, manifestMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return doc
}
