package main

import (
	"errors"
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
		{name: "fig1", desc: "Figure 1: site autonomy vs VO-level functionality", inAll: true, bind: report(core.F1, core.F1Sweep)},
		{name: "fig2", desc: "Figure 2: SHARP ticket -> lease -> VM protocol trace", inAll: true,
			bind: noFlags(func(w io.Writer, g *globals) error {
				return core.RenderFigure2(w, g.seed)
			})},
		{name: "e3", desc: "E3: federation scale sweep (paper: GT 20-50 sites, PlanetLab 155 -> ~1000)", inAll: true, bind: report(core.E3)},
		// Minutes at full size, so not part of `all`.
		{name: "scale", desc: "E14: planetary federation (sharded MDS + memoized SHARP + compact leases)", bind: bindScale},
		{name: "proxylife", desc: "E4: proxy-certificate lifetime tradeoff", inAll: true, bind: report(core.E4)},
		{name: "delegation", desc: "E5: identity vs usage delegation under policy churn", inAll: true, bind: report(core.E5)},
		{name: "allocation", desc: "E6: best-effort vs reserved; FCFS port conflicts", inAll: true, bind: report(core.E6)},
		{name: "hetero", desc: "E7: heterogeneity glue cost vs uniform node interface", inAll: true, bind: report(core.E7)},
		{name: "datagrid", desc: "E8: striped GridFTP +/- PlanetLab multipath overlay", inAll: true, bind: report(core.E8)},
		{name: "oversub", desc: "E9: SHARP ticket oversubscription sweep", inAll: true, bind: report(core.E9)},
		{name: "avail", desc: "E10/E11: availability under failures (analytic + managed service)", inAll: true, bind: report(core.E10, core.E11)},
		{name: "probes", desc: "probe-by-probe functionality matrix across all three stacks", inAll: true, bind: report(core.ProbeMatrix)},
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
		{name: "ablation", desc: "A1-A3: backfill, multipath pooling, MDS refresh ablations", inAll: true, bind: report(core.A1, core.A2, core.A3)},
		{name: "all", desc: "run every experiment in order",
			bind: noFlags(func(w io.Writer, g *globals) error {
				for _, c := range commands() {
					if !c.inAll {
						continue
					}
					fmt.Fprintf(w, "==== %s: %s ====\n", c.name, c.desc)
					// An unparsed set: each experiment runs at its flag defaults.
					exec, err := c.bind(flag.NewFlagSet(c.name, flag.ContinueOnError), g)()
					if err == nil {
						err = exec(w)
					}
					if err != nil {
						return fmt.Errorf("%s: %w", c.name, err)
					}
					fmt.Fprintln(w)
				}
				return nil
			})},
	}
}

// noFlags is bind for a command that registers no flag of its own.
func noFlags(report func(w io.Writer, g *globals) error) func(*flag.FlagSet, *globals) resolve {
	return func(_ *flag.FlagSet, g *globals) resolve {
		return func() (body, error) { return func(w io.Writer) error { return report(w, g) }, nil }
	}
}

// report is bind for a command that runs experiments declared in core
// (core.Experiment) at their default grids, a blank line apart, and
// registers no flag of its own.
func report(exps ...interface{ Report(io.Writer, int64, int) }) func(*flag.FlagSet, *globals) resolve {
	return noFlags(func(w io.Writer, g *globals) error {
		for i, e := range exps {
			if i > 0 {
				fmt.Fprintln(w)
			}
			e.Report(w, g.seed, g.workers)
		}
		return nil
	})
}

// profileFlag registers -profile, which chaos, byzantine and trace share.
func profileFlag(fs *flag.FlagSet) *string {
	return fs.String("profile", "mixed", "fault profile (quiet|crashes|partitions|mixed)")
}

func bindChaos(fs *flag.FlagSet, g *globals) resolve {
	profile := profileFlag(fs)
	sweep := fs.Int("sweep", 0, "run `N` seeds x all profiles instead of one run")
	bisect := fs.Bool("bisect", false, "report when the first invariant violation was recorded instead of the run's log")
	resilience := fs.Bool("resilience", false, "enable the retry/breaker/keepalive kit")
	lease := fs.Duration("lease", 0, "service lease term (0 = one lease outliving the run)")
	reconcile := fs.Duration("reconcile", 0, "periodic repair-pass interval (0 = event-driven only)")
	return func() (body, error) {
		if *sweep < 0 {
			return nil, fmt.Errorf("-sweep %d: want a seed count, or 0 for one run", *sweep)
		}
		if *bisect && *sweep > 0 {
			return nil, errors.New("-bisect localizes one run; it cannot be combined with -sweep")
		}
		cfg := faultlab.DefaultChaosConfig()
		cfg.Resilience, cfg.Lease, cfg.ReconcileEvery = *resilience, *lease, *reconcile
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("-lease/-reconcile: %w", err)
		}
		p, err := faultlab.ProfileByName(*profile)
		if err != nil && *sweep == 0 { // a sweep runs every profile
			return nil, fmt.Errorf("-profile: %w", err)
		}
		return func(w io.Writer) error {
			if *sweep > 0 {
				res := chaos.Sweep(g.seed, *sweep, faultlab.Profiles(), cfg, g.workers)
				fmt.Fprint(w, res)
				if !res.OK() {
					return fmt.Errorf("invariant violations found")
				}
				return nil
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
		}, nil
	}
}

func bindByzantine(fs *flag.FlagSet, g *globals) resolve {
	profile := profileFlag(fs)
	seeds := fs.Int("sweep", 20, "sweep this many seeds")
	return func() (body, error) {
		if *seeds <= 0 {
			return nil, fmt.Errorf("-sweep %d: want a positive seed count", *seeds)
		}
		p, err := faultlab.ProfileByName(*profile)
		if err != nil {
			return nil, fmt.Errorf("-profile: %w", err)
		}
		return func(w io.Writer) error {
			res := chaos.ByzantineSweep(g.seed, *seeds, p, faultlab.DefaultByzantineChaosConfig(), g.workers)
			fmt.Fprint(w, res)
			if !res.OK() {
				return fmt.Errorf("byzantine sweep failed its acceptance gate")
			}
			return nil
		}, nil
	}
}

// bindTrace runs one scenario with the obs layer enabled and exports the
// resulting trace in the requested format. -o is created only once the
// trace exists, so a refused or failed run never truncates an existing
// artifact.
func bindTrace(fs *flag.FlagSet, g *globals) resolve {
	profile := profileFlag(fs)
	out := fs.String("o", "", "output `file` (default stdout)")
	format := fs.String("format", "jsonl", "export format (jsonl|chrome|timeline)")
	return func() (body, error) {
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
			return nil, fmt.Errorf("-format: unknown trace format %q (want jsonl|chrome|timeline)", *format)
		}
		scenario := "fig2"
		if fs.NArg() > 0 {
			scenario = fs.Arg(0)
		}
		var traced func() (*obs.Tracer, error)
		switch scenario {
		case "fig2":
			traced = func() (*obs.Tracer, error) {
				res, tr, err := core.Figure2Traced(g.seed)
				if err == nil {
					err = core.ValidateFigure2(res)
				}
				return tr, err
			}
		case "delegation":
			traced = func() (*obs.Tracer, error) {
				_, tr, err := core.TraceDelegation(g.seed)
				return tr, err
			}
		case "chaos":
			p, err := faultlab.ProfileByName(*profile)
			if err != nil {
				return nil, fmt.Errorf("-profile: %w", err)
			}
			cfg := faultlab.DefaultChaosConfig()
			cfg.Trace = true
			traced = func() (*obs.Tracer, error) { return faultlab.RunChaos(g.seed, p, cfg).Tracer, nil }
		default:
			return nil, fmt.Errorf("unknown trace scenario %q (want fig2|delegation|chaos)", scenario)
		}
		return func(w io.Writer) error {
			tr, err := traced()
			if err != nil {
				return err
			}
			if *out == "" {
				return export(tr, w)
			}
			fp, err := os.Create(*out)
			if err != nil {
				return err
			}
			return errors.Join(export(tr, fp), fp.Close())
		}, nil
	}
}
