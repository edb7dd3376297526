// Package chaos fans faultlab's (seed × profile) chaos sweep across a
// worker pool. The unit of parallelism is one grid cell: a cold
// faultlab.RunChaos that owns a private engine, rng, federation and
// tracer, so cells share nothing. Results land in preallocated slots
// reduced in seed-major grid order, so the output is identical to a
// sequential loop over RunChaos at any worker count — the determinism
// tests assert this under -race in CI.
//
// It lives in a subpackage because perf itself must stay stdlib-only
// (core imports perf; faultlab imports core; importing faultlab from
// perf would cycle).
package chaos

import (
	"repro/internal/faultlab"
	"repro/internal/perf"
)

// Reports runs the chaos grid — seeds startSeed..startSeed+seeds-1 ×
// profiles — across workers goroutines and returns every report in
// seed-major grid order. workers <= 0 means GOMAXPROCS; workers == 1 is
// the sequential reference.
func Reports(startSeed int64, seeds int, profiles []faultlab.Profile, cfg faultlab.ChaosConfig, workers int) []*faultlab.Report {
	if seeds <= 0 || len(profiles) == 0 {
		return nil
	}
	reps := make([]*faultlab.Report, seeds*len(profiles))
	ForEachReport(startSeed, seeds, profiles, cfg, workers, func(i int, rep *faultlab.Report) {
		reps[i] = rep
	})
	return reps
}

// ForEachReport runs the same grid as Reports but hands each report to
// visit as soon as its run completes, so a caller that only needs a
// digest of each cell (its trace, say) never holds the whole grid. i is
// the seed-major grid index. visit runs on worker goroutines, so it must
// only touch per-cell state or synchronize.
func ForEachReport(startSeed int64, seeds int, profiles []faultlab.Profile, cfg faultlab.ChaosConfig, workers int, visit func(i int, rep *faultlab.Report)) {
	perf.ForEach(seeds*len(profiles), workers, func(i int) {
		seed := startSeed + int64(i/len(profiles))
		visit(i, faultlab.RunChaos(seed, profiles[i%len(profiles)], cfg))
	})
}

// Sweep folds the grid's reports through SweepResult.Add in grid order,
// so the aggregate is the same regardless of workers.
func Sweep(startSeed int64, seeds int, profiles []faultlab.Profile, cfg faultlab.ChaosConfig, workers int) *faultlab.SweepResult {
	res := &faultlab.SweepResult{}
	for _, rep := range Reports(startSeed, seeds, profiles, cfg, workers) {
		res.Add(rep)
	}
	return res
}

// ByzantineSweep runs one profile over a seed range and folds the
// reports through ByzantineSweepResult.Add in seed order, so the evidence
// table is byte-identical at any worker count.
func ByzantineSweep(startSeed int64, seeds int, p faultlab.Profile, cfg faultlab.ChaosConfig, workers int) *faultlab.ByzantineSweepResult {
	res := faultlab.NewByzantineSweepResult()
	for _, rep := range Reports(startSeed, seeds, []faultlab.Profile{p}, cfg, workers) {
		res.Add(rep)
	}
	return res
}
