// Command gridlab regenerates every table and figure of the reproduction
// of "Globus and PlanetLab Resource Management Solutions Compared"
// (HPDC-13, 2004). Each subcommand corresponds to one experiment in
// DESIGN.md; `gridlab all` runs the full set in order.
//
// Usage:
//
//	gridlab [-seed N] <table1|fig1|fig2|scale|proxylife|delegation|allocation|hetero|datagrid|oversub|chaos|all>
//	gridlab chaos [-seed N] [-profile quiet|crashes|partitions|mixed] [-sweep N]
//	gridlab byzantine [-seed N] [-profile P] [-sweep SEEDS] [-workers N]
//	             [-resilience] [-lease D] [-reconcile D] [-bisect [-bisect-windows K]]
//	gridlab trace <fig2|delegation|chaos> [-seed N] [-o FILE] [-format jsonl|chrome|timeline]
//	gridlab [-cpuprofile FILE] [-memprofile FILE] <command>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultlab"
	"repro/internal/obs"
	"repro/internal/perf/chaos"
	"repro/internal/workload/cdn"
)

var (
	seed       = flag.Int64("seed", 42, "simulation seed (runs are deterministic per seed)")
	profile    = flag.String("profile", "mixed", "chaos fault profile (quiet|crashes|partitions|mixed)")
	sweep      = flag.Int("sweep", 0, "chaos: run N seeds x all profiles instead of one run")
	bisect     = flag.Bool("bisect", false, "chaos: localize the first failing audit by snapshot bisection")
	bisectWins = flag.Int("bisect-windows", 8, "chaos: coarse snapshot windows for -bisect")
	resilience = flag.Bool("resilience", false, "chaos: enable the retry/breaker/keepalive kit")
	leaseTerm  = flag.Duration("lease", 0, "chaos: service lease term (0 = one lease outliving the run)")
	reconcile  = flag.Duration("reconcile", 0, "chaos: periodic repair-pass interval (0 = event-driven only)")
	traceOut   = flag.String("o", "", "trace: output file (default stdout)")
	traceFmt   = flag.String("format", "jsonl", "trace: export format (jsonl|chrome|timeline)")
	workers    = flag.Int("workers", 1, "sweep fan-out: worker goroutines (0 = GOMAXPROCS; output is identical at any count)")

	scaleSites   = flag.Int("sites", 1000, "scale: federation site count")
	scaleNodes   = flag.Int("nodes", 100000, "scale: total sensor nodes across the federation")
	scaleLeases  = flag.Int("leases", 1000000, "scale: total concurrent-lease target across the federation")
	scaleRegions = flag.Int("regions", 16, "scale: MDS shard / parallel-cell count")

	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole command to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file when the command ends")
)

// traceScenario is the positional operand of `gridlab trace`.
var traceScenario = "fig2"

type command struct {
	name, desc string
	run        func() error
}

func commands() []command {
	return []command{
		{"table1", "Table 1: abbreviation glossary mapped to modules", func() error {
			core.RenderTable1(os.Stdout)
			return nil
		}},
		{"fig1", "Figure 1: site autonomy vs VO-level functionality", func() error {
			core.RenderFigure1(os.Stdout, *seed, 12)
			fmt.Println("\nSweep over homogeneous autonomy demand alpha:")
			core.Figure1Sweep(*seed, 8, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, *workers).Render(os.Stdout)
			return nil
		}},
		{"fig2", "Figure 2: SHARP ticket -> lease -> VM protocol trace", func() error {
			return core.RenderFigure2(os.Stdout, *seed)
		}},
		{"e3", "E3: federation scale sweep (paper: GT 20-50 sites, PlanetLab 155 -> ~1000)", func() error {
			core.RunScale(*seed, []int{10, 50, 100, 200, 500, 1000}, *workers).Render(os.Stdout)
			return nil
		}},
		{"scale", "E14: planetary federation (sharded MDS + memoized SHARP + compact leases)", runScale},
		{"proxylife", "E4: proxy-certificate lifetime tradeoff", func() error {
			core.RunProxyLifetime(*seed, []time.Duration{
				time.Hour, 2 * time.Hour, 4 * time.Hour, 8 * time.Hour,
				16 * time.Hour, 32 * time.Hour, 64 * time.Hour,
			}, 500, *workers).Render(os.Stdout)
			return nil
		}},
		{"delegation", "E5: identity vs usage delegation under policy churn", func() error {
			for _, churn := range []float64{0, 0.5, 0.9} {
				fmt.Printf("churn probability %.2f:\n", churn)
				core.RunDelegation(*seed, 10, 50, churn).Render(os.Stdout)
				fmt.Println()
			}
			return nil
		}},
		{"allocation", "E6: best-effort vs reserved; FCFS port conflicts", func() error {
			core.RunAllocation(*seed, 10, 300, *workers).Render(os.Stdout)
			return nil
		}},
		{"hetero", "E7: heterogeneity glue cost vs uniform node interface", func() error {
			core.RunHeterogeneity(*seed, []int{0, 1, 2, 4, 8}, 200, *workers).Render(os.Stdout)
			return nil
		}},
		{"datagrid", "E8: striped GridFTP +/- PlanetLab multipath overlay", func() error {
			core.RunDataGrid(*seed, 1e9, []float64{0, 0.005, 0.01, 0.02}, []int{1, 2, 4, 8, 16}, *workers).Render(os.Stdout)
			return nil
		}},
		{"oversub", "E9: SHARP ticket oversubscription sweep", func() error {
			core.RunOversub(*seed, []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}, *workers).Render(os.Stdout)
			return nil
		}},
		{"avail", "E10/E11: availability under failures (analytic + managed service)", func() error {
			core.RunAvailability(*seed, []int{1, 2, 3, 4, 6, 8}, 90*24*time.Hour).Render(os.Stdout)
			fmt.Println("\nE11: live managed service vs static placement (12 sites, k=3, 90 days):")
			core.RunManagedAvailability(*seed, 3, 90*24*time.Hour).Render(os.Stdout)
			return nil
		}},
		{"probes", "probe-by-probe functionality matrix across all three stacks", func() error {
			specs := make([]core.SiteSpec, 6)
			for i := range specs {
				specs[i] = core.SiteSpec{
					Name: fmt.Sprintf("s%d", i), X: float64(10 * (i + 1)), Y: 8,
					Nodes: 2, ClusterSlots: 16, Policy: core.PlanetLabSitePolicy(),
				}
			}
			core.RenderProbeMatrix(os.Stdout, *seed, specs)
			return nil
		}},
		{"chaos", "fault injection: seed-driven faults + cross-stack invariant audit", func() error {
			cfg := faultlab.DefaultChaosConfig()
			cfg.Resilience = *resilience
			cfg.Lease = *leaseTerm
			cfg.ReconcileEvery = *reconcile
			if *sweep > 0 {
				res := chaos.Sweep(*seed, *sweep, faultlab.Profiles(), cfg, *workers)
				fmt.Print(res)
				if !res.OK() {
					return fmt.Errorf("invariant violations found")
				}
				return nil
			}
			p, err := faultlab.ProfileByName(*profile)
			if err != nil {
				return err
			}
			if *bisect {
				res := faultlab.Bisect(*seed, p, cfg, *bisectWins)
				fmt.Print(res)
				if !res.OK() {
					fmt.Printf("repro: %s\n", res.Report.Repro())
					return fmt.Errorf("%d invariant violations", len(res.Report.Violations))
				}
				return nil
			}
			rep := faultlab.RunChaos(*seed, p, cfg)
			fmt.Print(rep.Schedule)
			fmt.Println()
			for _, line := range rep.Trace {
				fmt.Println(line)
			}
			fmt.Println()
			fmt.Print(rep.Summary)
			if !rep.OK() {
				fmt.Println("\ninvariant violations:")
				for _, v := range rep.Violations {
					fmt.Printf("  %s\n", v)
				}
				fmt.Printf("repro: %s\n", rep.Repro())
				return fmt.Errorf("%d invariant violations", len(rep.Violations))
			}
			fmt.Println("\nall invariants held")
			return nil
		}},
		{"byzantine", "E13: adversarial brokers vs reputation/collateral defense, 20-seed sweep", func() error {
			cfg := faultlab.DefaultByzantineChaosConfig()
			p, err := faultlab.ProfileByName(*profile)
			if err != nil {
				return err
			}
			seeds := *sweep
			if seeds <= 0 {
				seeds = 20
			}
			res := chaos.ByzantineSweep(*seed, seeds, p, cfg, *workers)
			fmt.Print(res)
			if !res.OK() {
				return fmt.Errorf("byzantine sweep failed its acceptance gate")
			}
			return nil
		}},
		{"cdn", "E12: CoDeeN-style overlay CDN, striped multipath vs single-stream under churn", func() error {
			cdn.Curve(*seed, cdn.DefaultConfig(), cdn.CurveProfiles(), 10*time.Minute, *workers).Render(os.Stdout)
			return nil
		}},
		{"trace", "run a scenario (fig2|delegation|chaos) with tracing on and export the trace", runTrace},
		{"recs", "§6 recommendations mapped to their demonstrations in this repo", func() error {
			core.RenderRecommendations(os.Stdout)
			return nil
		}},
		{"ablation", "A1-A3: backfill, multipath pooling, MDS refresh ablations", func() error {
			fmt.Println("A1: EASY backfill vs pure FCFS (32 slots, 200 jobs):")
			core.RunBackfillAblation(*seed, 32, 200).Render(os.Stdout)
			fmt.Println("\nA2: static vs pooled multipath split (400 MB, asymmetric paths):")
			core.RunPoolingAblation(*seed, 400e6).Render(os.Stdout)
			fmt.Println("\nA3: MDS soft-state refresh period (200 resources):")
			core.RunTTLAblation(*seed, []time.Duration{
				30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
			}, 200).Render(os.Stdout)
			return nil
		}},
	}
}

func main() { os.Exit(run()) }

// run is main returning its exit code, so that the profiles started
// here are flushed on every path out of a command.
func run() int {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		return 2
	}
	name := flag.Arg(0)
	// Allow flags after the subcommand too: gridlab chaos -seed 7 -profile
	// crashes. `trace` additionally takes one positional scenario operand,
	// on either side of the flags.
	rest := flag.Args()[1:]
	if name == "trace" && len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		traceScenario = rest[0]
		rest = rest[1:]
	}
	if len(rest) > 0 {
		if err := flag.CommandLine.Parse(rest); err != nil {
			return 2
		}
		if flag.NArg() != 0 {
			if name == "trace" && flag.NArg() == 1 {
				traceScenario = flag.Arg(0)
			} else {
				usage()
				return 2
			}
		}
	}
	var todo []command
	for _, c := range commands() {
		// `all` skips the machine-readable export and the heavyweight run.
		if c.name == name || name == "all" && c.name != "trace" && c.name != "scale" {
			todo = append(todo, c)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "gridlab: unknown command %q\n\n", name)
		usage()
		return 2
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridlab: %v\n", err)
		return 1
	}
	code := 0
	for _, c := range todo {
		if name == "all" {
			fmt.Printf("==== %s: %s ====\n", c.name, c.desc)
		}
		if err := c.run(); err != nil {
			fmt.Fprintf(os.Stderr, "gridlab %s: %v\n", c.name, err)
			code = 1
			break
		}
		if name == "all" {
			fmt.Println()
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "gridlab: %v\n", err)
		code = 1
	}
	return code
}

// runTrace executes one scenario with the obs layer enabled and exports
// the resulting trace in the requested format. -format is checked before
// anything runs or -o is created, so a typo never truncates an existing
// artifact.
func runTrace() error {
	var export func(*obs.Tracer, io.Writer) error
	switch *traceFmt {
	case "jsonl":
		export = (*obs.Tracer).WriteJSONL
	case "chrome":
		export = (*obs.Tracer).WriteChromeTrace
	case "timeline":
		export = func(tr *obs.Tracer, w io.Writer) error {
			tr.WriteTimeline(w, 72)
			return nil
		}
	default:
		return fmt.Errorf("unknown trace format %q (want jsonl|chrome|timeline)", *traceFmt)
	}
	var tr *obs.Tracer
	switch traceScenario {
	case "fig2":
		res, t, err := core.Figure2Traced(*seed)
		if err != nil {
			return err
		}
		if err := core.ValidateFigure2(res); err != nil {
			return err
		}
		tr = t
	case "delegation":
		t, err := core.TraceDelegation(*seed)
		if err != nil {
			return err
		}
		tr = t
	case "chaos":
		p, err := faultlab.ProfileByName(*profile)
		if err != nil {
			return err
		}
		cfg := faultlab.DefaultChaosConfig()
		cfg.Trace = true
		rep := faultlab.RunChaos(*seed, p, cfg)
		tr = rep.Tracer
	default:
		return fmt.Errorf("unknown trace scenario %q (want fig2|delegation|chaos)", traceScenario)
	}
	if *traceOut == "" {
		return export(tr, os.Stdout)
	}
	fp, err := os.Create(*traceOut)
	if err != nil {
		return err
	}
	if err := export(tr, fp); err != nil {
		fp.Close()
		return err
	}
	return fp.Close()
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: gridlab [-seed N] <command>\n\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.desc)
	}
	fmt.Fprintf(os.Stderr, "  %-11s run every experiment in order\n", "all")
	fmt.Fprintf(os.Stderr, "\ntrace usage: gridlab trace <fig2|delegation|chaos> [-seed N] [-o FILE] [-format jsonl|chrome|timeline]\n")
	fmt.Fprintf(os.Stderr, "profiling:   gridlab [-cpuprofile FILE] [-memprofile FILE] <command>\n")
}
