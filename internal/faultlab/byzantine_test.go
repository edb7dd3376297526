package faultlab

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim/snaptest"
	"repro/internal/trust"
)

var updateByz = flag.Bool("update-byz", false, "rewrite byzantine golden files")

// byzTestConfig is the shrunken byzantine grid: the fork-test scenario
// (every stateful layer on) plus a small adversarial market, sized so the
// differential and determinism gates stay fast under -race.
func byzTestConfig() ChaosConfig {
	cfg := forkTestConfig()
	// The 90m fork grid is too short for reputation to converge; give the
	// market enough probe traffic to starve the byzantine broker.
	cfg.Horizon = 6 * time.Hour
	cfg.Byzantine = ByzantineConfig{
		HonestBrokers:    2,
		ByzantineBrokers: 1,
		StockPerSite:     50,
		OversellFactor:   10,
		ReplayEvery:      1,
		Deposit:          5,
		SlashPenalty:     1,
		ScoreDecay:       trust.DefaultScoreDecay,
		MinScore:         0.25,
		AttackEvery:      20 * time.Minute,
		ShopEvery:        4 * time.Minute,
		ShopAmount:       0.25,
		LateFraction:     0.75,
	}
	return cfg
}

// serializeByzReport extends the chaos serialization with the byzantine
// section, so per-broker scores, bank totals, and attack counters are all
// inside the byte comparison — not just the summary rows derived from
// them.
func serializeByzReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	b.Write(serializeReport(t, rep))
	if rep.Byzantine != nil {
		fmt.Fprintf(&b, "byzantine=%+v\n", *rep.Byzantine)
	}
	return b.Bytes()
}

// TestByzantineForkVsCold is satellite 3's differential half: with the
// byzantine layer on, running all profiles off one warm fork must be
// byte-identical — including scoreboard state, slash totals, and attack
// counters — to cold-building each (seed, profile) run. The whole byzRun
// hangs off the chaos SnapRoot, so a fork that failed to rewind any of
// its state (replay caches, banks, exchange rng, ticker positions) shows
// up here as a byte diff.
func TestByzantineForkVsCold(t *testing.T) {
	cfg := byzTestConfig()
	profiles := Profiles()
	cold := func(seed int64) []byte {
		var b bytes.Buffer
		for _, p := range profiles {
			b.Write(serializeByzReport(t, RunChaos(seed, p, cfg)))
		}
		return b.Bytes()
	}
	forked := func(seed int64) []byte {
		var b bytes.Buffer
		forkedSeedRun(seed, profiles, cfg, func(rep *Report) {
			b.Write(serializeByzReport(t, rep))
		})
		return b.Bytes()
	}
	n := 8
	if testing.Short() {
		n = 2
	}
	snaptest.Diff(t, "byzantine", snaptest.Seeds(1, n), cold, forked)
}

// TestByzantineRepeatedForkIdentical pins rng rewind under the byzantine
// layer: forking the SAME profile twice off one snapshot must replay the
// market (exchange picks, shop ticks, attacks) byte-for-byte.
func TestByzantineRepeatedForkIdentical(t *testing.T) {
	cfg := byzTestConfig()
	p, _ := ProfileByName("mixed")
	for _, seed := range snaptest.Seeds(1, 4) {
		var runs [][]byte
		forkedSeedRun(seed, []Profile{p, p}, cfg, func(rep *Report) {
			runs = append(runs, serializeByzReport(t, rep))
		})
		if !bytes.Equal(runs[0], runs[1]) {
			t.Fatalf("seed %d: second byzantine fork diverged:\n%s",
				seed, snaptest.Describe(runs[0], runs[1]))
		}
	}
}

// TestByzantineConvergence runs the golden scenario end to end and checks
// the paper-level claims on each seed: every replay and forgery rejected,
// collateral actually seized, the byzantine brokers' late market share
// within the 5% bound, and every byzantine broker scored strictly below
// every honest one by the end of the run.
func TestByzantineConvergence(t *testing.T) {
	cfg := DefaultByzantineChaosConfig()
	p, _ := ProfileByName("mixed")
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for s := int64(1); s <= int64(seeds); s++ {
		rep := RunChaos(s, p, cfg)
		if !rep.OK() {
			t.Fatalf("seed %d: violations: %v", s, rep.Violations)
		}
		bz := rep.Byzantine
		if bz == nil {
			t.Fatalf("seed %d: byzantine stats missing", s)
		}
		if bz.ReplayAttempts == 0 || bz.ForgeAttempts == 0 {
			t.Fatalf("seed %d: attack ticker idle: %d replays, %d forgeries",
				s, bz.ReplayAttempts, bz.ForgeAttempts)
		}
		if bz.ReplayRejected != bz.ReplayAttempts {
			t.Errorf("seed %d: replays rejected %d/%d", s, bz.ReplayRejected, bz.ReplayAttempts)
		}
		if bz.ForgeRejected != bz.ForgeAttempts {
			t.Errorf("seed %d: forgeries rejected %d/%d", s, bz.ForgeRejected, bz.ForgeAttempts)
		}
		if bz.ShopBuys == 0 {
			t.Errorf("seed %d: market exerciser made no purchases", s)
		}
		if bz.ByzShareLate > 0.05 {
			t.Errorf("seed %d: byz late share %.4f > 0.05 (%d/%d)",
				s, bz.ByzShareLate, bz.ByzRedeemsLate, bz.MarketRedeemsLate)
		}
		if bz.CollateralSlashed <= 0 {
			t.Errorf("seed %d: no collateral slashed", s)
		}
		if bz.TrustReportErrs != 0 {
			t.Errorf("seed %d: %d trust report errors", s, bz.TrustReportErrs)
		}
		minHonest, maxByz := 2.0, -1.0
		for _, sc := range bz.Scores {
			if len(sc.Broker) >= 3 && sc.Broker[:3] == "byz" {
				if sc.Score > maxByz {
					maxByz = sc.Score
				}
			} else if sc.Score < minHonest {
				minHonest = sc.Score
			}
		}
		if maxByz >= minHonest {
			t.Errorf("seed %d: scoreboard did not separate: max byz %.4f >= min honest %.4f",
				s, maxByz, minHonest)
		}
	}
}

// TestByzantineAvailabilityDominance checks the defense is not itself a
// denial of service: per seed, the run with the byzantine layer (attacks
// plus reputation routing) must keep honest service availability at least
// as high as the identical run without it.
func TestByzantineAvailabilityDominance(t *testing.T) {
	withByz := byzTestConfig()
	plain := withByz
	plain.Byzantine = ByzantineConfig{}
	p, _ := ProfileByName("mixed")
	for _, seed := range snaptest.Seeds(1, 5) {
		base := RunChaos(seed, p, plain)
		byz := RunChaos(seed, p, withByz)
		if byz.Availability < base.Availability {
			t.Errorf("seed %d: byzantine availability %.4f < baseline %.4f",
				seed, byz.Availability, base.Availability)
		}
	}
}

// TestByzantineZeroConfigInert pins the compatibility contract: a zero
// ByzantineConfig must leave the scenario untouched — no exchange, no
// banks, no byzantine report section, and a report byte-identical to one
// from a config struct that predates the field.
func TestByzantineZeroConfigInert(t *testing.T) {
	if (ByzantineConfig{}).Enabled() {
		t.Fatal("zero ByzantineConfig reports Enabled")
	}
	cfg := forkTestConfig()
	p, _ := ProfileByName("crashes")
	rep := RunChaos(7, p, cfg)
	if rep.Byzantine != nil {
		t.Fatalf("layer off but report has byzantine section: %+v", *rep.Byzantine)
	}
}

// TestByzantineSweepGolden pins the small-grid evidence table to a
// committed golden file, so any drift in market routing, slashing, attack
// accounting, or rendering is an explicit, reviewed change. Regenerate
// with:
//
//	go test ./internal/faultlab -run TestByzantineSweepGolden -update-byz
func TestByzantineSweepGolden(t *testing.T) {
	cfg := byzTestConfig()
	p, _ := ProfileByName("mixed")
	res := byzantineSweep(1, 5, p, cfg)
	if !res.OK() {
		t.Fatalf("golden grid fails its own gate:\n%s", res)
	}
	got := []byte(res.String())
	golden := filepath.Join("testdata", "byzantine_sweep_golden.txt")
	if *updateByz {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("byzantine sweep drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
