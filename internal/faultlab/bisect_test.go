package faultlab

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// plantBreach makes every chaos run armed during the test record one
// violation at virtual time at. The healthy scenario holds its invariants
// by design, so a planted event is the only mid-run breach there is to
// find; it rides snapshots like any scheduled work.
func plantBreach(t *testing.T, at time.Duration) {
	t.Helper()
	armHook = func(c *chaosRun) {
		c.f.Eng.Schedule(at-c.f.Eng.Now(), func() {
			c.record([]Violation{{Invariant: "planted", Detail: "test breach"}})
		})
	}
	t.Cleanup(func() { armHook = nil })
}

// TestBisectLocalizesPlantedBreach plants a violation at a known virtual
// time and checks Bisect reports exactly that instant and that violation.
func TestBisectLocalizesPlantedBreach(t *testing.T) {
	const breakAt = 53*time.Minute + 17*time.Second
	plantBreach(t, breakAt)

	p, _ := ProfileByName("mixed")
	res := Bisect(7, p, forkTestConfig())
	if res.OK() || res.FinalOnly {
		t.Fatalf("planted breach not seen: ok=%v finalOnly=%v", res.OK(), res.FinalOnly)
	}
	if res.FailAt != breakAt {
		t.Fatalf("FailAt=%v, want %v", res.FailAt, breakAt)
	}
	if len(res.First) != 1 || res.First[0].Invariant != "planted" {
		t.Fatalf("First=%v, want the planted violation", res.First)
	}
	if !strings.Contains(res.String(), "first violation recorded at 53m17s\n") {
		t.Fatalf("String() = %q", res.String())
	}
}

// TestBisectMatchesForkBisect holds the stamp read against the
// snapshot-and-fork search it replaced: same verdict, same first
// violations, and a FailAt the search brackets from above within its
// resolution. The cases put the breach mid-window, exactly on a coarse
// window boundary, and in the converge tail past the fault horizon
// (final-only for both); the last is the README's unplanted seed-7 run.
func TestBisectMatchesForkBisect(t *testing.T) {
	const windows = 8
	small := forkTestConfig()
	readme := DefaultChaosConfig()
	readme.Lease = 10 * time.Minute
	for _, tc := range []struct {
		name      string
		cfg       ChaosConfig
		plant     time.Duration // 0 plants nothing
		finalOnly bool
	}{
		{"mid-window", small, 53*time.Minute + 17*time.Second, false},
		{"window-boundary", small, small.Horizon * 3 / windows, false},
		{"converge-tail", small, small.Horizon + 7*time.Minute, true},
		{"readme-seed-7", readme, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.plant > 0 {
				plantBreach(t, tc.plant)
			}
			p, _ := ProfileByName("mixed")
			got := Bisect(7, p, tc.cfg)
			want, probes := forkBisect(7, p, tc.cfg, windows)
			if got.OK() || want.OK() {
				t.Fatalf("run is clean: stamp ok=%v, fork ok=%v", got.OK(), want.OK())
			}
			if got.FinalOnly != tc.finalOnly || want.FinalOnly != tc.finalOnly {
				t.Fatalf("FinalOnly: stamp %v, fork %v, want %v", got.FinalOnly, want.FinalOnly, tc.finalOnly)
			}
			if !tc.finalOnly && (got.FailAt != tc.plant || probes == 0) {
				t.Fatalf("FailAt=%v after %d fork probes, want %v after some", got.FailAt, probes, tc.plant)
			}
			if d := want.FailAt - got.FailAt; d < 0 || d > forkBisectResolution {
				t.Fatalf("stamp FailAt=%v, fork FailAt=%v: want fork within %v above",
					got.FailAt, want.FailAt, forkBisectResolution)
			}
			if fmt.Sprint(got.First) != fmt.Sprint(want.First) {
				t.Fatalf("First: stamp %v, fork %v", got.First, want.First)
			}
			if got.Report.Summary != want.Report.Summary {
				t.Fatalf("the two runs differ:\n%s\nvs\n%s", got.Report.Summary, want.Report.Summary)
			}
		})
	}
}

// TestBisectCleanRun: nothing to bisect on a healthy run.
func TestBisectCleanRun(t *testing.T) {
	p, _ := ProfileByName("crashes")
	res := Bisect(1, p, forkTestConfig())
	if !res.OK() || res.FinalOnly || res.FailAt != 0 {
		t.Fatalf("clean run bisected: ok=%v finalOnly=%v failAt=%v violations=%v",
			res.OK(), res.FinalOnly, res.FailAt, res.Report.Violations)
	}
	if !strings.Contains(res.String(), "clean") {
		t.Fatalf("String() = %q", res.String())
	}
}

// TestBisectFinalOnly: a run that fails only the post-heal converged audit
// (short lease, no keepalive — the service dies and nothing restarts it)
// has no mid-run breach to point at.
func TestBisectFinalOnly(t *testing.T) {
	cfg := ChaosConfig{
		Sites: 4, Target: 2, CPUPerSite: 0.5,
		Horizon: 90 * time.Minute, Converge: 15 * time.Minute,
		Refresh: 2 * time.Minute, JobEvery: 5 * time.Minute,
		AuditEvery: 5 * time.Minute, Lease: 10 * time.Minute,
	}
	p, _ := ProfileByName("crashes")
	res := Bisect(1, p, cfg)
	if res.OK() {
		t.Fatalf("expected a failing run (got clean)")
	}
	if !res.FinalOnly || res.FailAt != 0 || len(res.First) != 0 {
		t.Fatalf("expected FinalOnly: %+v", res)
	}
	if !strings.Contains(res.String(), "final converged audit") {
		t.Fatalf("String() = %q", res.String())
	}
}
