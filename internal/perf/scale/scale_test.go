package scale

import (
	"bytes"
	"testing"
	"time"
)

// smallConfig is a quick federation that still exercises every
// mechanism: multiple regions, growth windows, batching, renew/release
// churn, summary push, and the root query phase.
func smallConfig() Config {
	return Config{
		Sites:           12,
		NodesPerSite:    8,
		LeasesPerSite:   48,
		Regions:         4,
		Batch:           16,
		RefreshInterval: 2 * time.Minute,
		Windows:         2,
	}
}

func render(rep *Report) []byte {
	var buf bytes.Buffer
	rep.Render(&buf)
	return buf.Bytes()
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallConfig()
	base := render(Run(7, cfg, 1))
	for _, w := range []int{2, 4} {
		got := render(Run(7, cfg, w))
		if !bytes.Equal(base, got) {
			t.Fatalf("report differs between workers=1 and workers=%d:\n--- w1 ---\n%s\n--- w%d ---\n%s",
				w, base, w, got)
		}
	}
	if rerun := render(Run(7, cfg, 1)); !bytes.Equal(base, rerun) {
		t.Fatalf("report differs across identical reruns")
	}
	if diff := render(Run(8, cfg, 1)); bytes.Equal(base, diff) {
		t.Fatalf("different seeds produced identical reports")
	}
}

func TestRunAccounting(t *testing.T) {
	cfg := smallConfig()
	rep := Run(3, cfg, 2)

	if rep.SitesN != cfg.Sites {
		t.Fatalf("sites = %d, want %d", rep.SitesN, cfg.Sites)
	}
	wantNodes := cfg.Sites * cfg.NodesPerSite
	if rep.NodesLiveN != wantNodes {
		t.Fatalf("mds live = %d, want %d (soft-state should keep every node fresh)", rep.NodesLiveN, wantNodes)
	}
	if rep.MDSSlotsN != wantNodes {
		t.Fatalf("mds slots = %d, want %d (dense store, no churn growth)", rep.MDSSlotsN, wantNodes)
	}
	wantGranted := cfg.Sites * cfg.LeasesPerSite
	if rep.GrantedN != wantGranted {
		t.Fatalf("granted = %d, want %d", rep.GrantedN, wantGranted)
	}
	wantReleased := wantGranted / releaseEvery
	if rep.ReleasedN != wantReleased {
		t.Fatalf("released = %d, want %d", rep.ReleasedN, wantReleased)
	}
	if rep.LiveN != wantGranted-wantReleased {
		t.Fatalf("live = %d, want %d", rep.LiveN, wantGranted-wantReleased)
	}
	// Compact store: slots are O(live), never O(granted). With releases
	// interleaved into the redeem stream the free list recycles, so the
	// high-water mark stays below the grant count.
	if rep.LeaseSlotsN >= wantGranted {
		t.Fatalf("lease slots = %d, want < %d granted (compact store should recycle)", rep.LeaseSlotsN, wantGranted)
	}
	if rep.LeaseSlotsN < rep.LiveN {
		t.Fatalf("lease slots = %d < live %d", rep.LeaseSlotsN, rep.LiveN)
	}
	// Batched verification amortizes: every ticket is a depth-1 chain
	// sharing nothing, but renew-path and batch memoization still dedup
	// the issuer signature checks. The gate is the acceptance bar from
	// the issue: >= 3x fewer verifies than signatures presented.
	if rep.BatchVerifiedN <= 0 || rep.BatchSigN <= 0 {
		t.Fatalf("batch counters empty: sigs=%d verified=%d", rep.BatchSigN, rep.BatchVerifiedN)
	}
	if rep.RenewedN == 0 {
		t.Fatalf("no renewals happened")
	}
	if len(rep.RootLines) == 0 {
		t.Fatalf("root query phase produced no lines")
	}
}

func TestRunWindowsStream(t *testing.T) {
	cfg := smallConfig()
	rep := Run(5, cfg, 1)
	for _, cell := range rep.Cells {
		if len(cell.Lines) != cfg.Windows {
			t.Fatalf("region %s emitted %d window lines, want %d:\n%v",
				cell.RegionName, len(cell.Lines), cfg.Windows, cell.Lines)
		}
	}
}

func TestRegistrationFlatness(t *testing.T) {
	cfg := smallConfig()
	var fake time.Duration
	clock := func() time.Duration { fake += time.Millisecond; return fake }
	early, late := RegistrationFlatness(1, cfg, 16, 4, clock)
	if early <= 0 || late <= 0 {
		t.Fatalf("probe returned early=%v late=%v", early, late)
	}
	if e, l := RegistrationFlatness(1, cfg, 16, 4, nil); e != 0 || l != 0 {
		t.Fatalf("nil clock should disable the probe, got %v/%v", e, l)
	}
	if e, l := RegistrationFlatness(1, cfg, 4, 4, clock); e != 0 || l != 0 {
		t.Fatalf("window not fitting should disable the probe, got %v/%v", e, l)
	}
}
