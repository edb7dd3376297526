package faultlab

import (
	"testing"
	"time"
)

// The acceptance sweep: 50 seeds × all 3 built-in profiles, every
// invariant holding on every run. A failure here prints the minimal
// (seed, profile) repro.
func TestSweepFiftySeedsAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is the long acceptance test")
	}
	cfg := DefaultChaosConfig()
	cfg.Horizon = 4 * time.Hour // full severity, shorter soak per run
	res := sweep(1, 50, Profiles(), cfg)
	if res.Runs != 150 {
		t.Fatalf("Runs = %d, want 150", res.Runs)
	}
	if !res.OK() {
		t.Fatalf("sweep found violations:\n%s", res)
	}
}

// sweep is the sequential reference for perf/chaos.Sweep: seeds
// startSeed..startSeed+seeds-1 × profiles, seed-major, one cold RunChaos
// per cell.
func sweep(startSeed int64, seeds int, profiles []Profile, cfg ChaosConfig) *SweepResult {
	res := &SweepResult{}
	for s := int64(0); s < int64(seeds); s++ {
		for _, p := range profiles {
			res.Add(RunChaos(startSeed+s, p, cfg))
		}
	}
	return res
}

// byzantineSweep is the sequential reference for
// perf/chaos.ByzantineSweep: one profile over a seed range.
func byzantineSweep(startSeed int64, seeds int, p Profile, cfg ChaosConfig) *ByzantineSweepResult {
	res := NewByzantineSweepResult()
	for s := int64(0); s < int64(seeds); s++ {
		res.Add(RunChaos(startSeed+s, p, cfg))
	}
	return res
}
