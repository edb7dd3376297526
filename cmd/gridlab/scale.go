package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/perf/scale"
)

// bindScale sizes the E14 planetary federation from federation-wide
// totals.
func bindScale(fs *flag.FlagSet, g *globals) func(io.Writer) error {
	sites := fs.Int("sites", 1000, "federation site count")
	nodes := fs.Int("nodes", 100000, "total sensor nodes across the federation")
	leases := fs.Int("leases", 1000000, "total concurrent-lease target across the federation")
	regions := fs.Int("regions", 16, "MDS shard / parallel-cell count")
	return func(w io.Writer) error {
		cfg := scale.DefaultConfig()
		cfg.Sites = *sites
		cfg.Regions = *regions
		if cfg.Sites <= 0 {
			return usageError("-sites must be positive")
		}
		cfg.NodesPerSite = max(*nodes/cfg.Sites, 1)
		cfg.LeasesPerSite = max(*leases/cfg.Sites, 1)
		runScale(w, cfg, g)
		return nil
	}
}

// runScale drives the E14 experiment. The deterministic report goes to w
// (byte-identical at any -workers count — CI diffs w1 vs w8); wall-clock
// throughput, the registration-flatness probe, peak RSS, and the BENCH_
// lines go to stderr, since they vary run to run. The wall clock is
// injected here: internal packages are wall-time-free by lint.
func runScale(w io.Writer, cfg scale.Config, g *globals) {
	start := time.Now()
	cfg.WallClock = func() time.Duration { return time.Since(start) }

	rep := scale.Run(g.seed, cfg, g.workers)
	rep.Render(w)

	for _, line := range rep.Perf {
		fmt.Fprintf(os.Stderr, "perf: %s\n", line)
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		fmt.Fprintf(os.Stderr, "BENCH_scale_sites_per_sec %.2f\n", float64(rep.SitesN)/wall)
		fmt.Fprintf(os.Stderr, "BENCH_scale_leases_per_sec %.0f\n", float64(rep.GrantedN)/wall)
	}
	if rss, ok := peakRSSBytes(); ok {
		fmt.Fprintf(os.Stderr, "BENCH_scale_peak_rss_bytes %d\n", rss)
		if rep.LiveN > 0 {
			fmt.Fprintf(os.Stderr, "perf: rss/live-lease = %.0f bytes (O(live) check: leases dominate at full scale)\n",
				float64(rss)/float64(rep.LiveN))
		}
	}

	// Registration-flatness probe: steady-state refresh cost per record
	// against a 64-site index vs the full -sites index (min-of-3 rounds
	// each, inside the probe). The acceptance gate is "within 10% from
	// 64 -> 1000 sites"; emit the ratio so CI and readers can eyeball
	// it. Kept out of the deterministic report (it is pure wall time).
	probeSites, window := cfg.Sites, 64
	if probeSites >= 2*window {
		small, large := scale.RegistrationFlatness(g.seed, cfg, probeSites, window, cfg.WallClock)
		if small > 0 {
			fmt.Fprintf(os.Stderr, "perf: register flatness at%d=%.0fns/rec at%d=%.0fns/rec ratio=%.3f\n",
				window, small, probeSites, large, large/small)
			fmt.Fprintf(os.Stderr, "BENCH_scale_register_flatness %.3f\n", large/small)
		}
	}
}

// peakRSSBytes reads the process high-water resident set from
// /proc/self/status (VmHWM). Linux-only; reports ok=false elsewhere.
func peakRSSBytes() (int64, bool) {
	fp, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer fp.Close()
	sc := bufio.NewScanner(fp)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}
