package chaos

import (
	"testing"
	"time"

	"repro/internal/faultlab"
)

// testConfig is a shrunken chaos scenario: full stack, short horizon, so
// the comparisons with a sequential loop stay fast under -race.
func testConfig() faultlab.ChaosConfig {
	cfg := faultlab.DefaultChaosConfig()
	cfg.Sites = 4
	cfg.Target = 2
	cfg.Horizon = 90 * time.Minute
	cfg.Converge = 15 * time.Minute
	return cfg
}

// TestParallelMatchesSequentialFaultlabSweep pins the parallel path to
// a plain seed-major loop over faultlab.RunChaos, not just to itself,
// for Sweep and for ByzantineSweep.
func TestParallelMatchesSequentialFaultlabSweep(t *testing.T) {
	cfg := testConfig()
	profiles := faultlab.Profiles()
	want := &faultlab.SweepResult{}
	for seed := int64(5); seed < 7; seed++ {
		for _, p := range profiles {
			want.Add(faultlab.RunChaos(seed, p, cfg))
		}
	}
	got := Sweep(5, 2, profiles, cfg, 0)
	if got.Runs != want.Runs || got.ViolationN != want.ViolationN ||
		got.AvailabilitySum != want.AvailabilitySum || got.LeaseLapses != want.LeaseLapses {
		t.Fatalf("parallel sweep %+v != sequential RunChaos loop %+v", got, want)
	}
	if (got.First == nil) != (want.First == nil) {
		t.Fatalf("First mismatch: parallel %v, sequential %v", got.First, want.First)
	}
	if got.First != nil && (got.First.Seed != want.First.Seed || got.First.Profile != want.First.Profile) {
		t.Fatalf("first failure: parallel (%d,%s) != sequential (%d,%s)",
			got.First.Seed, got.First.Profile, want.First.Seed, want.First.Profile)
	}

	byz, p := byzTestConfig(), faultlab.Profiles()[2]
	seq := faultlab.NewByzantineSweepResult()
	for seed := int64(1); seed <= 3; seed++ {
		seq.Add(faultlab.RunChaos(seed, p, byz))
	}
	if par := ByzantineSweep(1, 3, p, byz, 0); seq.String() != par.String() {
		t.Fatalf("byzantine sweep differs from a sequential RunChaos loop:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestReportsGridOrder asserts slot i holds the (seed-major) grid cell i.
func TestReportsGridOrder(t *testing.T) {
	cfg := testConfig()
	profiles := faultlab.Profiles()[:2]
	reps := Reports(10, 2, profiles, cfg, 4)
	for i, rep := range reps {
		wantSeed := int64(10 + i/len(profiles))
		wantProfile := profiles[i%len(profiles)].Name
		if rep.Seed != wantSeed || rep.Profile != wantProfile {
			t.Fatalf("slot %d: (%d,%s), want (%d,%s)", i, rep.Seed, rep.Profile, wantSeed, wantProfile)
		}
	}
}

func TestEmptyGrid(t *testing.T) {
	cfg := testConfig()
	if got := Reports(0, 0, faultlab.Profiles(), cfg, 4); got != nil {
		t.Fatalf("Reports with 0 seeds = %v, want nil", got)
	}
	if res := Sweep(0, 0, faultlab.Profiles(), cfg, 4); res.Runs != 0 {
		t.Fatalf("Sweep with 0 seeds ran %d cells", res.Runs)
	}
}

// byzTestConfig is the shrunken byzantine scenario: the small chaos grid
// plus a 2-vs-1 broker market with the full defense stack on.
func byzTestConfig() faultlab.ChaosConfig {
	cfg := testConfig()
	cfg.Resilience = true
	cfg.Lease = 30 * time.Minute
	cfg.ReconcileEvery = 10 * time.Minute
	cfg.Horizon = 3 * time.Hour
	byz := faultlab.DefaultByzantineConfig()
	byz.HonestBrokers = 2
	byz.ByzantineBrokers = 1
	byz.StockPerSite = 50
	byz.Deposit = 5
	byz.AttackEvery = 20 * time.Minute
	cfg.Byzantine = byz
	return cfg
}

func TestByzantineSweepEmptyGrid(t *testing.T) {
	cfg := byzTestConfig()
	if res := ByzantineSweep(0, 0, faultlab.Profiles()[2], cfg, 4); res.Runs != 0 {
		t.Fatalf("ByzantineSweep with 0 seeds ran %d cells", res.Runs)
	}
}
