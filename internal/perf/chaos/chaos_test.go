package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultlab"
)

// testConfig is a shrunken chaos scenario: full stack, short horizon, so
// the N-vs-1 worker comparisons stay fast enough for -race CI runs.
func testConfig() faultlab.ChaosConfig {
	cfg := faultlab.DefaultChaosConfig()
	cfg.Sites = 4
	cfg.Target = 2
	cfg.Horizon = 90 * time.Minute
	cfg.Converge = 15 * time.Minute
	return cfg
}

// reportKey is the JSON-comparable projection of a report: everything
// observable from a run except the tracer handle.
type reportKey struct {
	Seed         int64
	Profile      string
	Trace        []faultlab.FaultEvent
	Violations   []faultlab.Violation
	Summary      string
	Availability float64
	LeaseLapses  int
	Flags        string
}

func marshalReports(t *testing.T, reps []*faultlab.Report) []byte {
	t.Helper()
	keys := make([]reportKey, len(reps))
	for i, r := range reps {
		keys[i] = reportKey{
			Seed: r.Seed, Profile: r.Profile, Trace: r.Trace,
			Violations: r.Violations, Summary: r.Summary,
			Availability: r.Availability, LeaseLapses: r.LeaseLapses,
			Flags: r.Flags,
		}
	}
	b, err := json.Marshal(keys)
	if err != nil {
		t.Fatalf("marshal reports: %v", err)
	}
	return b
}

// TestParallelSweepByteIdentical is the acceptance gate for the parallel
// executor: the same grid at workers=1 and workers=8 must produce
// byte-identical per-report JSON and an identical aggregate.
func TestParallelSweepByteIdentical(t *testing.T) {
	cfg := testConfig()
	profiles := faultlab.Profiles()

	seq := Reports(1, 2, profiles, cfg, 1)
	par := Reports(1, 2, profiles, cfg, 8)
	if len(seq) != len(par) {
		t.Fatalf("report count: workers=1 %d, workers=8 %d", len(seq), len(par))
	}
	a, b := marshalReports(t, seq), marshalReports(t, par)
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=8 reports differ from workers=1:\n--- w1 ---\n%s\n--- w8 ---\n%s", a, b)
	}

	ra := Sweep(1, 2, profiles, cfg, 1)
	rb := Sweep(1, 2, profiles, cfg, 8)
	if ra.Runs != rb.Runs || ra.ViolationN != rb.ViolationN ||
		ra.AvailabilitySum != rb.AvailabilitySum || ra.LeaseLapses != rb.LeaseLapses {
		t.Fatalf("aggregates differ: w1=%+v w8=%+v", ra, rb)
	}
}

// TestParallelMatchesSequentialFaultlabSweep pins the parallel path to
// a plain seed-major loop over faultlab.RunChaos, not just to itself.
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
}

// TestParallelTraceIdentical turns the obs tracing layer on and asserts
// the JSONL trace of every grid cell is byte-identical across worker
// counts: parallelism must not perturb even the observability stream.
func TestParallelTraceIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Trace = true
	profiles := []faultlab.Profile{faultlab.Profiles()[0], faultlab.Quiet()}

	drain := func(workers int) [][]byte {
		out := make([][]byte, 2*len(profiles))
		ForEachReport(3, 2, profiles, cfg, workers, func(i int, rep *faultlab.Report) {
			var b bytes.Buffer
			if err := rep.Tracer.WriteJSONL(&b); err != nil {
				t.Errorf("cell %d (w%d): trace: %v", i, workers, err)
			}
			out[i] = b.Bytes()
		})
		return out
	}
	seq, par := drain(1), drain(8)
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("cell %d: traces differ (%d vs %d bytes)", i, len(seq[i]), len(par[i]))
		}
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

// byzTestConfig is the shrunken byzantine scenario for the
// worker-determinism gates: the small chaos grid plus a 2-vs-1 broker
// market with the full defense stack on.
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

// TestByzantineSweepWorkerByteIdentical is satellite coverage for the
// byzantine evidence pipeline: the rendered sweep — per-seed shares,
// slash totals, attack tallies — must be byte-identical at workers=1 and
// workers=8, and both must match a sequential loop over RunChaos.
func TestByzantineSweepWorkerByteIdentical(t *testing.T) {
	cfg := byzTestConfig()
	p := faultlab.Profiles()[2]
	w1 := ByzantineSweep(1, 3, p, cfg, 1)
	w8 := ByzantineSweep(1, 3, p, cfg, 8)
	if w1.String() != w8.String() {
		t.Fatalf("workers=8 sweep differs from workers=1:\n--- w1 ---\n%s\n--- w8 ---\n%s", w1, w8)
	}
	seq := faultlab.NewByzantineSweepResult()
	for seed := int64(1); seed <= 3; seed++ {
		seq.Add(faultlab.RunChaos(seed, p, cfg))
	}
	if seq.String() != w1.String() {
		t.Fatalf("parallel sweep differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, w1)
	}
}

// TestByzantineReportsWorkerByteIdentical drills below the aggregate:
// every per-run byzantine section — scoreboard snapshot, collateral
// held/slashed, replay and forgery counters — plus the summary rows
// derived from it must be byte-identical across worker counts.
func TestByzantineReportsWorkerByteIdentical(t *testing.T) {
	cfg := byzTestConfig()
	profiles := []faultlab.Profile{faultlab.Profiles()[2]}
	drain := func(workers int) [][]byte {
		out := make([][]byte, 3)
		ForEachReport(1, 3, profiles, cfg, workers, func(i int, rep *faultlab.Report) {
			var b bytes.Buffer
			b.WriteString(rep.Summary)
			if rep.Byzantine != nil {
				fmt.Fprintf(&b, "byzantine=%+v\n", *rep.Byzantine)
			}
			out[i] = b.Bytes()
		})
		return out
	}
	seq, par := drain(1), drain(8)
	for i := range seq {
		if rep := seq[i]; len(rep) == 0 {
			t.Fatalf("cell %d: empty serialization", i)
		}
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("cell %d: byzantine sections differ:\n--- w1 ---\n%s\n--- w8 ---\n%s", i, seq[i], par[i])
		}
	}
}

func TestByzantineSweepEmptyGrid(t *testing.T) {
	cfg := byzTestConfig()
	if res := ByzantineSweep(0, 0, faultlab.Profiles()[2], cfg, 4); res.Runs != 0 {
		t.Fatalf("ByzantineSweep with 0 seeds ran %d cells", res.Runs)
	}
}
