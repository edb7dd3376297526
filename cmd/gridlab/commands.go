package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faultlab"
	"repro/internal/obs"
	"repro/internal/perf/chaos"
	"repro/internal/workload/cdn"
)

// commands is the one table behind dispatch, both usage messages, `gridlab
// all` and so results_all.txt. Rows are in presentation order.
func commands() []command {
	return []command{
		{name: "table1", desc: "Table 1: abbreviation glossary mapped to modules", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RenderTable1(w)
				return nil
			})},
		{name: "fig1", desc: "Figure 1: site autonomy vs VO-level functionality", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RenderFigure1(w, g.seed, 12)
				fmt.Fprintln(w, "\nSweep over homogeneous autonomy demand alpha:")
				core.Figure1Sweep(g.seed, 8, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, g.workers).Render(w)
				return nil
			})},
		{name: "fig2", desc: "Figure 2: SHARP ticket -> lease -> VM protocol trace", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				return core.RenderFigure2(w, g.seed)
			})},
		{name: "e3", desc: "E3: federation scale sweep (paper: GT 20-50 sites, PlanetLab 155 -> ~1000)", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RunScale(g.seed, []int{10, 50, 100, 200, 500, 1000}, g.workers).Render(w)
				return nil
			})},
		// Minutes at full size, so not part of `all`.
		{name: "scale", desc: "E14: planetary federation (sharded MDS + memoized SHARP + compact leases)", bind: bindScale},
		{name: "proxylife", desc: "E4: proxy-certificate lifetime tradeoff", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RunProxyLifetime(g.seed, []time.Duration{
					time.Hour, 2 * time.Hour, 4 * time.Hour, 8 * time.Hour,
					16 * time.Hour, 32 * time.Hour, 64 * time.Hour,
				}, 500, g.workers).Render(w)
				return nil
			})},
		{name: "delegation", desc: "E5: identity vs usage delegation under policy churn", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				for _, churn := range []float64{0, 0.5, 0.9} {
					fmt.Fprintf(w, "churn probability %.2f:\n", churn)
					core.RunDelegation(g.seed, 10, 50, churn).Render(w)
					fmt.Fprintln(w)
				}
				return nil
			})},
		{name: "allocation", desc: "E6: best-effort vs reserved; FCFS port conflicts", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RunAllocation(g.seed, 10, 300, g.workers).Render(w)
				return nil
			})},
		{name: "hetero", desc: "E7: heterogeneity glue cost vs uniform node interface", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RunHeterogeneity(g.seed, []int{0, 1, 2, 4, 8}, 200, g.workers).Render(w)
				return nil
			})},
		{name: "datagrid", desc: "E8: striped GridFTP +/- PlanetLab multipath overlay", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RunDataGrid(g.seed, 1e9, []float64{0, 0.005, 0.01, 0.02}, []int{1, 2, 4, 8, 16}, g.workers).Render(w)
				return nil
			})},
		{name: "oversub", desc: "E9: SHARP ticket oversubscription sweep", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RunOversub(g.seed, []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}, g.workers).Render(w)
				return nil
			})},
		{name: "avail", desc: "E10/E11: availability under failures (analytic + managed service)", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RunAvailability(g.seed, []int{1, 2, 3, 4, 6, 8}, 90*24*time.Hour).Render(w)
				fmt.Fprintln(w, "\nE11: live managed service vs static placement (12 sites, k=3, 90 days):")
				core.RunManagedAvailability(g.seed, 3, 90*24*time.Hour).Render(w)
				return nil
			})},
		{name: "probes", desc: "probe-by-probe functionality matrix across all three stacks", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				specs := make([]core.SiteSpec, 6)
				for i := range specs {
					specs[i] = core.SiteSpec{
						Name: fmt.Sprintf("s%d", i), X: float64(10 * (i + 1)), Y: 8,
						Nodes: 2, ClusterSlots: 16, Policy: core.PlanetLabSitePolicy(),
					}
				}
				core.RenderProbeMatrix(w, g.seed, specs)
				return nil
			})},
		{name: "chaos", desc: "fault injection: seed-driven faults + cross-stack invariant audit", inAll: true, bind: bindChaos},
		{name: "byzantine", desc: "E13: adversarial brokers vs reputation/collateral defense, 20-seed sweep", inAll: true, bind: bindByzantine},
		{name: "cdn", desc: "E12: CoDeeN-style overlay CDN, striped multipath vs single-stream under churn", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				cdn.Curve(g.seed, cdn.DefaultConfig(), cdn.CurveProfiles(), 10*time.Minute, g.workers).Render(w)
				return nil
			})},
		// A machine-readable export, so not part of `all`.
		{name: "trace", desc: "run a scenario (fig2|delegation|chaos) with tracing on and export the trace",
			operand: "[fig2|delegation|chaos]", bind: bindTrace},
		{name: "recs", desc: "§6 recommendations mapped to their demonstrations in this repo", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				core.RenderRecommendations(w)
				return nil
			})},
		{name: "ablation", desc: "A1-A3: backfill, multipath pooling, MDS refresh ablations", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				fmt.Fprintln(w, "A1: EASY backfill vs pure FCFS (32 slots, 200 jobs):")
				core.RunBackfillAblation(g.seed, 32, 200).Render(w)
				fmt.Fprintln(w, "\nA2: static vs pooled multipath split (400 MB, asymmetric paths):")
				core.RunPoolingAblation(g.seed, 400e6).Render(w)
				fmt.Fprintln(w, "\nA3: MDS soft-state refresh period (200 resources):")
				core.RunTTLAblation(g.seed, []time.Duration{
					30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
				}, 200).Render(w)
				return nil
			})},
		{name: "all", desc: "run every experiment in order",
			bind: noFlags(func(w io.Writer, g *globals) error {
				for _, c := range commands() {
					if !c.inAll {
						continue
					}
					fmt.Fprintf(w, "==== %s: %s ====\n", c.name, c.desc)
					// An unparsed set: each experiment runs at its flag defaults.
					if err := c.bind(flag.NewFlagSet(c.name, flag.ContinueOnError), g)(w); err != nil {
						return fmt.Errorf("%s: %w", c.name, err)
					}
					fmt.Fprintln(w)
				}
				return nil
			})},
	}
}

// noFlags is bind for a command that registers no flag of its own.
func noFlags(body func(w io.Writer, g *globals) error) func(*flag.FlagSet, *globals) func(io.Writer) error {
	return func(_ *flag.FlagSet, g *globals) func(io.Writer) error {
		return func(w io.Writer) error { return body(w, g) }
	}
}

// profileFlag registers -profile, which chaos, byzantine and trace share.
func profileFlag(fs *flag.FlagSet) *string {
	return fs.String("profile", "mixed", "fault profile (quiet|crashes|partitions|mixed)")
}

func bindChaos(fs *flag.FlagSet, g *globals) func(io.Writer) error {
	profile := profileFlag(fs)
	sweep := fs.Int("sweep", 0, "run `N` seeds x all profiles instead of one run")
	bisect := fs.Bool("bisect", false, "report when the first invariant violation was recorded instead of the run's log")
	resilience := fs.Bool("resilience", false, "enable the retry/breaker/keepalive kit")
	lease := fs.Duration("lease", 0, "service lease term (0 = one lease outliving the run)")
	reconcile := fs.Duration("reconcile", 0, "periodic repair-pass interval (0 = event-driven only)")
	return func(w io.Writer) error {
		if *bisect && *sweep > 0 {
			return usageError("-bisect localizes one run; it cannot be combined with -sweep")
		}
		cfg := faultlab.DefaultChaosConfig()
		cfg.Resilience = *resilience
		cfg.Lease = *lease
		cfg.ReconcileEvery = *reconcile
		if *sweep > 0 {
			res := chaos.Sweep(g.seed, *sweep, faultlab.Profiles(), cfg, g.workers)
			fmt.Fprint(w, res)
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
			res := faultlab.Bisect(g.seed, p, cfg)
			fmt.Fprint(w, res)
			if !res.OK() {
				fmt.Fprintf(w, "repro: %s\n", res.Report.Repro())
				return fmt.Errorf("%d invariant violations", len(res.Report.Violations))
			}
			return nil
		}
		rep := faultlab.RunChaos(g.seed, p, cfg)
		fmt.Fprint(w, rep.Schedule)
		fmt.Fprintln(w)
		for _, line := range rep.Trace {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, rep.Summary)
		if !rep.OK() {
			fmt.Fprintln(w, "\ninvariant violations:")
			for _, v := range rep.Violations {
				fmt.Fprintf(w, "  %s\n", v)
			}
			fmt.Fprintf(w, "repro: %s\n", rep.Repro())
			return fmt.Errorf("%d invariant violations", len(rep.Violations))
		}
		fmt.Fprintln(w, "\nall invariants held")
		return nil
	}
}

func bindByzantine(fs *flag.FlagSet, g *globals) func(io.Writer) error {
	profile := profileFlag(fs)
	seeds := fs.Int("sweep", 20, "sweep this many seeds")
	return func(w io.Writer) error {
		if *seeds <= 0 {
			return usageError("-sweep must be positive")
		}
		p, err := faultlab.ProfileByName(*profile)
		if err != nil {
			return err
		}
		res := chaos.ByzantineSweep(g.seed, *seeds, p, faultlab.DefaultByzantineChaosConfig(), g.workers)
		fmt.Fprint(w, res)
		if !res.OK() {
			return fmt.Errorf("byzantine sweep failed its acceptance gate")
		}
		return nil
	}
}

// bindTrace runs one scenario with the obs layer enabled and exports the
// resulting trace in the requested format. -format is checked before
// anything runs or -o is created, so a typo never truncates an existing
// artifact.
func bindTrace(fs *flag.FlagSet, g *globals) func(io.Writer) error {
	profile := profileFlag(fs)
	out := fs.String("o", "", "output `file` (default stdout)")
	format := fs.String("format", "jsonl", "export format (jsonl|chrome|timeline)")
	return func(w io.Writer) error {
		var export func(*obs.Tracer, io.Writer) error
		switch *format {
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
			return fmt.Errorf("unknown trace format %q (want jsonl|chrome|timeline)", *format)
		}
		scenario := "fig2"
		if fs.NArg() > 0 {
			scenario = fs.Arg(0)
		}
		var tr *obs.Tracer
		switch scenario {
		case "fig2":
			res, t, err := core.Figure2Traced(g.seed)
			if err != nil {
				return err
			}
			if err := core.ValidateFigure2(res); err != nil {
				return err
			}
			tr = t
		case "delegation":
			t, err := core.TraceDelegation(g.seed)
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
			tr = faultlab.RunChaos(g.seed, p, cfg).Tracer
		default:
			return fmt.Errorf("unknown trace scenario %q (want fig2|delegation|chaos)", scenario)
		}
		if *out == "" {
			return export(tr, w)
		}
		fp, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := export(tr, fp); err != nil {
			fp.Close()
			return err
		}
		return fp.Close()
	}
}
