package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultlab"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/perf/chaos"
	"repro/internal/perf/scale"
	"repro/internal/sim"
	"repro/internal/workload/cdn"
)

// outcome is what one run of a row saw: the fingerprint of each engine
// it drove, in a fixed order; its report, as text or an experiment's
// typed rows; its JSONL.
type outcome struct {
	engines []string
	report  any
	trace   []byte
}

// fingerprint renders an engine's digest as digests.txt holds it: events,
// digest, then the digest and clock after event 1, 2, 4, ...
func fingerprint(events, hash uint64, marks []sim.Mark) string {
	s := fmt.Sprintf("%d %016x", events, hash)
	for _, m := range marks {
		s += fmt.Sprintf(" %016x@%v", m.Hash, m.At)
	}
	return s
}

// detRow is one unit at a small size. Its base run is at seed on one
// worker, traced as the row says. Each column is a subtest named for what
// it varies: every row has "rerun", a sweep also "w8" (eight workers),
// and flip runs those columns again with tracing flipped ("untraced",
// "untraced-rerun", "untraced-w8" for a traced row). fixed marks a
// row whose timers the seed does not move (it picks keys and names), so
// another seed must change its bytes rather than its digest; keysOnly
// marks one whose seed picks only keys, which neither its events nor its
// bytes show, so another seed is not run.
type detRow struct {
	name                                 string
	seed                                 int64
	run                                  func(seed int64, workers int, traced bool) outcome
	traced, sweep, flip, fixed, keysOnly bool
}

var digestsFile = filepath.Join("testdata", "pinned", "digests.txt")

func detRows() []detRow {
	mixed, err := faultlab.ProfileByName("mixed")
	if err != nil {
		panic(err)
	}
	small := faultlab.DefaultChaosConfig()
	small.Horizon = 4 * time.Hour
	short := small
	short.Resilience, short.Lease, short.ReconcileEvery = true, 90*time.Minute, 15*time.Minute
	grid := faultlab.DefaultChaosConfig()
	grid.Sites, grid.Target, grid.Horizon, grid.Converge = 4, 2, 90*time.Minute, 15*time.Minute
	byz := grid
	byz.Resilience, byz.Lease, byz.ReconcileEvery, byz.Horizon = true, 30*time.Minute, 10*time.Minute, 3*time.Hour
	byz.Byzantine = faultlab.DefaultByzantineConfig()
	byz.Byzantine.HonestBrokers, byz.Byzantine.ByzantineBrokers = 2, 1
	byz.Byzantine.StockPerSite, byz.Byzantine.Deposit, byz.Byzantine.AttackEvery = 50, 5, 20*time.Minute
	return []detRow{
		{name: "fig2", seed: 42, traced: true, flip: true, fixed: true, run: func(seed int64, _ int, traced bool) outcome {
			res, tr, err := core.Figure2Traced(seed)
			if !traced {
				res, err = core.Figure2(seed)
			}
			if err != nil {
				panic(err)
			}
			return outcome{[]string{fingerprint(res.Events, res.Digest, res.Marks)}, fmt.Sprintf("%+v %d", res.Trace, len(res.Leases)), jsonl(tr)}
		}},
		{name: "delegation", seed: 42, traced: true, keysOnly: true, run: func(seed int64, _ int, _ bool) outcome {
			res, tr, err := core.TraceDelegation(seed)
			if err != nil {
				panic(err)
			}
			return outcome{engines: []string{fingerprint(res.Events, res.Digest, res.Marks)}, trace: jsonl(tr)}
		}},
		{name: "chaos-mixed", seed: 11, traced: true, flip: true, run: chaosGrid(1, []faultlab.Profile{mixed}, small)},
		{name: "chaos-resilience", seed: 23, traced: true, flip: true, run: chaosGrid(1, []faultlab.Profile{mixed}, short)},
		{name: "chaos-sweep", seed: 1, traced: true, sweep: true, flip: true, run: chaosGrid(2, faultlab.Profiles(), grid)},
		{name: "byzantine", seed: 1, sweep: true, run: chaosGrid(3, faultlab.Profiles()[2:3], byz)},
		{name: "scale", seed: 7, sweep: true, fixed: true, run: func(seed int64, workers int, _ bool) outcome {
			rep := scale.Run(seed, scale.Config{Sites: 12, NodesPerSite: 8, LeasesPerSite: 48, Regions: 4,
				Batch: 16, RefreshInterval: 2 * time.Minute, Windows: 2}, workers)
			var o outcome
			for _, c := range rep.Cells {
				o.engines = append(o.engines, fingerprint(c.Events, c.Digest, c.Marks))
			}
			var b strings.Builder
			rep.Render(&b)
			o.report = fmt.Sprintf("%s%d %x", b.String(), rep.Events, rep.Digest)
			return o
		}},
		{name: "cdn", seed: 7, sweep: true, run: cdnCells},
		experiment("F1", core.F1, 8),
		experiment("F1Sweep", core.F1Sweep, core.AlphaGrid{Sites: 6, Alphas: []float64{0, 0.5, 1}}),
		experiment("E3", core.E3, []int{4, 8, 12}),
		experiment("E4", core.E4, core.ProxyGrid{Lifetimes: []time.Duration{time.Hour, 8 * time.Hour, 64 * time.Hour}, Jobs: 200}),
		experiment("E5", core.E5, core.DelegationGrid{Sites: 4, Ops: 10, Churns: []float64{0, 0.9}}),
		experiment("E6", core.E6, core.AllocationGrid{Nodes: 4, Services: 40}),
		experiment("E7", core.E7, core.HeteroGrid{Dialects: []int{0, 1, 4}, Jobs: 60}),
		experiment("E8", core.E8, core.TransferGrid{Bytes: 1e7, Losses: []float64{0, 0.02}, Stripes: []int{1, 4}}),
		experiment("E9", core.E9, []float64{0.5, 1, 2}),
		experiment("A1", core.A1, core.BackfillGrid{Slots: 8, Jobs: 40}),
		experiment("A2", core.A2, 50e6),
		experiment("A3", core.A3, core.RefreshGrid{Periods: []time.Duration{time.Minute, 5 * time.Minute}, Resources: 20}),
		experiment("ProbeMatrix", core.ProbeMatrix, core.ProbeMatrix.Grid[:3]),
	}
}

// chaosGrid runs seeds × profiles and keeps every observable of the
// reports but the tracer.
func chaosGrid(seeds int, profiles []faultlab.Profile, cfg faultlab.ChaosConfig) func(int64, int, bool) outcome {
	return func(seed int64, workers int, traced bool) outcome {
		cfg.Trace = traced
		var o outcome
		var b strings.Builder
		for _, r := range chaos.Reports(seed, seeds, profiles, cfg, workers) {
			o.engines = append(o.engines, fingerprint(r.Events, r.Digest, r.Marks))
			fmt.Fprintf(&b, "%d %s %q %v %v %v %d %+v %+v\n%s", r.Seed, r.Profile, r.Flags, r.Trace,
				r.Violations, r.Availability, r.LeaseLapses, r.Resilience, r.Byzantine, r.Summary)
			o.trace = append(o.trace, jsonl(r.Tracer)...)
		}
		o.report = b.String()
		return o
	}
}

// cdnCells runs `gridlab cdn`'s cells, 120 requests each, across workers.
func cdnCells(seed int64, workers int, _ bool) outcome {
	cfg, profiles := cdn.DefaultConfig(), cdn.CurveProfiles()
	cfg.Requests = 120
	o := outcome{engines: make([]string, 2*len(profiles))}
	stats := make([]cdn.Stats, len(o.engines))
	perf.ForEach(len(o.engines), workers, func(i int) {
		run := cfg
		run.Striped = i%2 == 1 // cells alternate single-stream and striped, as in Curve
		sc := cdn.New(seed, run, profiles[i/2], 5*time.Minute)
		sc.Eng.RunUntil(5 * time.Minute)
		n, h := sc.Eng.Digest()
		o.engines[i], stats[i] = fingerprint(n, h, sc.Eng.Marks()), sc.Stats
	})
	o.report = fmt.Sprintf("%+v", stats)
	return o
}

// experiment is a row over e's typed rows at grid g; its engines are out
// of reach.
func experiment[G, R any](name string, e core.Experiment[G, R], g G) detRow {
	return detRow{name: name, seed: 42, sweep: true, run: func(seed int64, workers int, _ bool) outcome {
		return outcome{report: e.Run(seed, g, workers)}
	}}
}

func jsonl(tr *obs.Tracer) []byte {
	var b bytes.Buffer
	_ = tr.WriteJSONL(&b) // writing to a Buffer cannot fail
	return b.Bytes()
}

// TestDeterminism is the determinism contract in one table: each row's
// columns fire the same events and print the same bytes as its base run,
// another seed fires other events, and the fingerprints match
// digests.txt, which -update rewrites. A mismatch names the engine and
// the first checkpoint window where the runs part.
func TestDeterminism(t *testing.T) {
	rows := detRows()
	pinned, err := os.ReadFile(digestsFile)
	if err != nil && !*update {
		t.Fatal(err)
	}
	got := make([]string, len(rows))
	if *update {
		t.Cleanup(func() {
			head := "# TestDeterminism: row, engine, events, digest, the digest@clock after event 1, 2, 4, ...\n"
			if err := os.WriteFile(digestsFile, []byte(head+strings.Join(got, "")), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			base := r.run(r.seed, 1, r.traced)
			column := func(name string, workers int, traced bool) {
				t.Run(name, func(t *testing.T) { sameRun(t, base, r.run(r.seed, workers, traced)) })
			}
			column("rerun", 1, r.traced)
			if r.sweep {
				column("w8", 8, r.traced)
			}
			if r.flip {
				flipped := tracing(!r.traced)
				column(flipped, 1, !r.traced)
				column(flipped+"-rerun", 1, !r.traced)
				if r.sweep {
					column(flipped+"-w8", 8, !r.traced)
				}
			}
			if len(base.engines) == 0 {
				return
			}
			if !r.keysOnly {
				other := r.run(r.seed+1, 1, r.traced)
				if r.fixed && reflect.DeepEqual(other.report, base.report) && bytes.Equal(other.trace, base.trace) {
					t.Errorf("seed %d prints seed %d's bytes", r.seed+1, r.seed)
				}
				if !r.fixed && slices.Equal(other.engines, base.engines) {
					t.Errorf("seed %d fires seed %d's events", r.seed+1, r.seed)
				}
			}
			var want []string
			for j, e := range base.engines {
				prefix := fmt.Sprintf("%s %d ", r.name, j)
				got[i] += prefix + e + "\n"
				if k := strings.Index(string(pinned), "\n"+prefix); k >= 0 {
					want = append(want, strings.SplitN(string(pinned[k+1+len(prefix):]), "\n", 2)[0])
				}
			}
			if !*update {
				sameEngines(t, "pinned in "+digestsFile, want, base.engines)
			}
		})
	}
}

func tracing(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

// sameRun holds a column's run b to base a: each engine's fingerprint,
// the report and, when both traced, the JSONL.
func sameRun(t *testing.T, a, b outcome) {
	t.Helper()
	sameEngines(t, "vs base", a.engines, b.engines)
	if !reflect.DeepEqual(a.report, b.report) {
		t.Errorf("report differs from base:\n%v\n---\n%v", b.report, a.report)
	}
	if len(a.trace) > 0 && len(b.trace) > 0 && !bytes.Equal(a.trace, b.trace) {
		t.Errorf("JSONL trace differs (%d vs %d bytes)", len(b.trace), len(a.trace))
	}
}

// sameEngines reports the first engine whose fingerprint got differs
// from want's, with the first checkpoint window where the two part: the
// events after the last mark they share, up to the next.
func sameEngines(t *testing.T, col string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d engines, want %d", col, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		k, from := 0, "0s"
		for k+2 < min(len(g), len(w)) && g[k+2] == w[k+2] {
			_, from, _ = strings.Cut(g[k+2], "@")
			k++
		}
		t.Errorf("%s: engine %d fired (%s, %s), want (%s, %s): first divergent window is events %d–%d, from virtual time %s",
			col, i, g[0], g[1], w[0], w[1], 1<<k>>1+1, 1<<k, from)
		return
	}
}
