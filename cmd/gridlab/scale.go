package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/perf/scale"
)

// bindScale sizes the E14 planetary federation from federation-wide
// totals, so -nodes and -leases must each be at least -sites.
func bindScale(fs *flag.FlagSet, g *globals) resolve {
	sites := fs.Int("sites", 1000, "federation site count")
	nodes := fs.Int("nodes", 100000, "total sensor nodes across the federation")
	leases := fs.Int("leases", 1000000, "total concurrent-lease target across the federation")
	regions := fs.Int("regions", 16, "MDS shard / parallel-cell count")
	return func() (body, error) {
		cfg := scale.DefaultConfig()
		cfg.Sites, cfg.Regions = *sites, *regions
		// Validate refuses -sites below 1; max only keeps the division defined.
		cfg.NodesPerSite, cfg.LeasesPerSite = *nodes/max(*sites, 1), *leases/max(*sites, 1)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("-sites/-nodes/-leases/-regions: %w", err)
		}
		// The report is byte-identical at any -workers count (CI diffs
		// w1 vs w8) and is all the command writes: what the run cost on
		// the host is bench/'s e14-* workloads' to say, not stderr's.
		return func(w io.Writer) error {
			scale.Run(g.seed, cfg, g.workers).Render(w)
			return nil
		}, nil
	}
}
