package faultlab

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/snaptest"
)

// forkTestConfig is the differential grid's scenario: small enough to run
// dozens of times, but with tracing, resilience, short leases, and the
// reconcile loop all on so every stateful layer participates in the
// snapshot.
func forkTestConfig() ChaosConfig {
	return ChaosConfig{
		Sites:          4,
		Target:         2,
		CPUPerSite:     0.5,
		Horizon:        90 * time.Minute,
		Converge:       15 * time.Minute,
		Refresh:        2 * time.Minute,
		JobEvery:       5 * time.Minute,
		AuditEvery:     5 * time.Minute,
		Trace:          true,
		Lease:          30 * time.Minute,
		ReconcileEvery: 10 * time.Minute,
		Resilience:     true,
	}
}

// forkedSeedRun runs every profile for one seed off a single warm build:
// build the scenario once, snapshot at the arm point, re-fork per
// profile. Production sweeps run every cell cold (DESIGN §12 says why);
// the gates below use this as the whole-scenario exercise of the fork
// contract — a forked timeline is byte-identical to a cold one.
//
// visit runs BEFORE the next profile's fork: the seed's forks share the
// engine's tracer and the next fork rewinds it, so traces must be
// drained inside visit.
func forkedSeedRun(seed int64, profiles []Profile, cfg ChaosConfig, visit func(*Report)) {
	c := newChaosRun(seed, cfg)
	snap := c.f.Eng.Snapshot()
	for _, p := range profiles {
		snap.Fork()
		c.arm(Generate(seed, p, cfg.SiteNames(), cfg.Horizon))
		visit(c.finish())
	}
}

// serializeReport renders everything a chaos run observably produced —
// summary table, schedule, injector trace, violations, scalar outcomes,
// resilience counters, and the full JSONL trace stream — so the
// differential harness compares forked and cold runs byte for byte.
func serializeReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "== seed=%d profile=%s ==\n", rep.Seed, rep.Profile)
	if rep.Schedule != nil {
		b.WriteString(rep.Schedule.String())
	}
	for _, ln := range rep.Trace {
		fmt.Fprintf(&b, "inj %s\n", ln)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	b.WriteString(rep.Summary)
	fmt.Fprintf(&b, "availability=%.6f lapses=%d\n", rep.Availability, rep.LeaseLapses)
	if rep.Resilience != nil {
		fmt.Fprintf(&b, "resilience=%+v\n", *rep.Resilience)
	}
	if rep.Tracer != nil {
		if err := rep.Tracer.WriteJSONL(&b); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
	}
	return b.Bytes()
}

// TestForkVsColdChaos is the tentpole gate: for every seed in the grid,
// running all profiles off one warm fork must be byte-identical — report,
// summary, violations, and JSONL trace stream — to cold-building each
// (seed, profile) run from scratch. Run under -race in CI.
func TestForkVsColdChaos(t *testing.T) {
	cfg := forkTestConfig()
	profiles := Profiles()
	cold := func(seed int64) []byte {
		var b bytes.Buffer
		for _, p := range profiles {
			b.Write(serializeReport(t, RunChaos(seed, p, cfg)))
		}
		return b.Bytes()
	}
	forked := func(seed int64) []byte {
		var b bytes.Buffer
		// Serialize inside the visit callback: the shared tracer is only
		// valid for a given timeline until the next fork rewinds it.
		forkedSeedRun(seed, profiles, cfg, func(rep *Report) {
			b.Write(serializeReport(t, rep))
		})
		return b.Bytes()
	}
	n := 20
	if testing.Short() {
		n = 4
	}
	snaptest.Diff(t, "chaos", snaptest.Seeds(1, n), cold, forked)
}

// TestForkRewindsJobRngExactly pins the sweep rng-drift regression: the
// job-stream rng (and every other rng in the stack) must rewind to its
// exact captured position on each fork, so running the SAME profile twice
// off one snapshot yields byte-identical reports — and both match cold.
func TestForkRewindsJobRngExactly(t *testing.T) {
	cfg := forkTestConfig()
	p, _ := ProfileByName("mixed")
	for _, seed := range snaptest.Seeds(1, 8) {
		var runs [][]byte
		forkedSeedRun(seed, []Profile{p, p}, cfg, func(rep *Report) {
			runs = append(runs, serializeReport(t, rep))
		})
		first, second := runs[0], runs[1]
		if !bytes.Equal(first, second) {
			t.Fatalf("seed %d: second fork of the same profile diverged (rng drift):\n%s",
				seed, snaptest.Describe(first, second))
		}
		coldRep := serializeReport(t, RunChaos(seed, p, cfg))
		if !bytes.Equal(coldRep, first) {
			t.Fatalf("seed %d: forked run diverged from cold:\n%s",
				seed, snaptest.Describe(coldRep, first))
		}
	}
}

// TestChaosSnapshotPurity is the scenario-level purity gate: taking
// snapshots — at the arm point and again mid-run — without ever forking
// them must leave the run byte-identical to one that never snapshotted.
func TestChaosSnapshotPurity(t *testing.T) {
	cfg := forkTestConfig()
	p, _ := ProfileByName("crashes")
	for _, seed := range snaptest.Seeds(1, 5) {
		plain := serializeReport(t, RunChaos(seed, p, cfg))

		c := newChaosRun(seed, cfg)
		_ = c.f.Eng.Snapshot()
		c.arm(Generate(seed, p, cfg.SiteNames(), cfg.Horizon))
		c.f.Eng.RunUntil(cfg.Horizon / 2)
		_ = c.f.Eng.Snapshot()
		snapped := serializeReport(t, c.finish())

		if !bytes.Equal(plain, snapped) {
			t.Fatalf("seed %d: snapshotting perturbed the run:\n%s",
				seed, snaptest.Describe(plain, snapped))
		}
	}
}

// TestForkedSweepMatchesColdSweep: folding warm-forked reports must
// render the same aggregate as sweep, which runs every cell cold.
func TestForkedSweepMatchesColdSweep(t *testing.T) {
	cfg := forkTestConfig()
	profiles := Profiles()
	coldRes := sweep(1, 3, profiles, cfg)
	warmRes := &SweepResult{}
	for s := int64(1); s <= 3; s++ {
		forkedSeedRun(s, profiles, cfg, warmRes.Add)
	}
	if coldRes.String() != warmRes.String() {
		t.Fatalf("forked sweep diverged from cold sweep:\ncold:\n%s\nwarm:\n%s", coldRes, warmRes)
	}
	if coldRes.AvailabilitySum != warmRes.AvailabilitySum || coldRes.LeaseLapses != warmRes.LeaseLapses {
		t.Fatalf("forked sweep aggregates diverged: cold=%+v warm=%+v", coldRes, warmRes)
	}
}

// forkBisectResolution is forkBisect's stopping width; audits land on
// discrete ticks, so converging below the tick spacing pins the exact one.
const forkBisectResolution = time.Second

// forkBisect is Bisect as it was computed before violations carried a
// timestamp, kept as Bisect's oracle and as the test of re-forking a
// whole chaos scenario mid-run. The coarse pass runs the scenario once,
// snapshotting the engine at window boundaries and noting the cumulative
// violation count at each; the first window whose count grows contains
// the first recorded violation. The fine pass binary-searches inside
// that window by re-forking the window-start snapshot and running to the
// probe time: the audit ticker is live in every forked timeline, so "a
// new violation was recorded by time T" is a monotone predicate read
// straight off the scenario state. probes counts the fine pass's forks.
func forkBisect(seed int64, p Profile, cfg ChaosConfig, windows int) (res *BisectResult, probes int) {
	c := newChaosRun(seed, cfg)
	c.arm(Generate(seed, p, cfg.SiteNames(), cfg.Horizon))

	// snaps[k] is the state at bounds[k]; violN[k] the violations recorded
	// by then. bounds[0] is the arm point (t≈1s), bounds[windows] the horizon.
	bounds := make([]time.Duration, windows+1)
	snaps := make([]sim.Snapshot, windows+1)
	violN := make([]int, windows+1)
	bounds[0] = c.f.Eng.Now()
	snaps[0] = c.f.Eng.Snapshot()
	for k := 1; k <= windows; k++ {
		bounds[k] = cfg.Horizon * time.Duration(k) / time.Duration(windows)
		c.f.Eng.RunUntil(bounds[k])
		snaps[k] = c.f.Eng.Snapshot()
		violN[k] = len(c.violations)
	}
	res = &BisectResult{Seed: seed, Profile: p.Name, Report: c.finish()}
	if res.OK() {
		return res, 0
	}
	first := -1
	for k := 1; k <= windows; k++ {
		if violN[k] > violN[k-1] {
			first = k
			break
		}
	}
	if first < 0 {
		res.FinalOnly = true
		return res, 0
	}
	base := violN[first-1]
	lo, hi := bounds[first-1], bounds[first]
	for hi-lo > forkBisectResolution {
		mid := lo + (hi-lo)/2
		snaps[first-1].Fork()
		c.f.Eng.RunUntil(mid)
		probes++
		if len(c.violations) > base {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.FailAt = hi
	// One last fork to harvest exactly what the first failing audit saw.
	snaps[first-1].Fork()
	c.f.Eng.RunUntil(hi)
	res.First = append([]Violation(nil), c.violations[base:]...)
	return res, probes
}
