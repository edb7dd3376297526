package main

import (
	"flag"
	"io"

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
		// The report is byte-identical at any -workers count (CI diffs
		// w1 vs w8) and is all the command writes: what the run cost on
		// the host is bench/'s e14-* workloads' to say, not stderr's.
		scale.Run(g.seed, cfg, g.workers).Render(w)
		return nil
	}
}
