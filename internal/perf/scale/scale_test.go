package scale

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// smallConfig is a quick federation that still exercises every
// mechanism: multiple regions, growth windows, batching, renew/release
// churn, summary absorb, and the root query phase.
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

// Validate refuses each field Run cannot use, one rule per case, and
// accepts the smallest federation that is still whole.
func TestValidate(t *testing.T) {
	one := Config{Sites: 1, NodesPerSite: 1, LeasesPerSite: 1, Regions: 1, Batch: 1, RefreshInterval: 1, Windows: 1}
	if err := one.Validate(); err != nil {
		t.Fatalf("one-site config: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	for name, spoil := range map[string]func(*Config){
		"no sites":                func(c *Config) { c.Sites = 0 },
		"no regions":              func(c *Config) { c.Regions = 0 },
		"more regions than sites": func(c *Config) { c.Regions = 2 },
		"no nodes per site":       func(c *Config) { c.NodesPerSite = 0 },
		"negative leases":         func(c *Config) { c.LeasesPerSite = -5 },
		"no batch":                func(c *Config) { c.Batch = 0 },
		"no windows":              func(c *Config) { c.Windows = 0 },
		"no refresh":              func(c *Config) { c.RefreshInterval = 0 },
	} {
		cfg := one
		spoil(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
}

// A config that fails Validate is a programmer error: Run panics with
// Validate's message before it builds a cell.
func TestRunPanicsOnInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Regions = cfg.Sites + 1
	want := cfg.Validate()
	if want == nil {
		t.Fatal("Validate accepted more regions than sites")
	}
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) != want.Error() {
			t.Errorf("Run panicked with %v, want %q", r, want)
		}
	}()
	Run(1, cfg, 1)
}

// retainedHeap is the live heap a finished Run's Report keeps: HeapAlloc
// after a full collection with the report held, less the same before Run.
func retainedHeap(cfg Config) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := Run(1, cfg, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rep)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestFinishedCellsAreReleased: a Report keeps the region indexes the root
// phase queried and the counted lines, not the lease planes behind them,
// so the heap it holds does not grow with the leases each site granted.
// A cell that kept its sites (or a ticker that still reached them) would
// hold every live lease's slot, ID, capability and replay entry: 4× the
// leases would add about 0.9 MB here. A first run is discarded, because it
// also keeps what the process sets up once.
func TestFinishedCellsAreReleased(t *testing.T) {
	cfg := smallConfig()
	cfg.Sites, cfg.Regions, cfg.NodesPerSite, cfg.Batch = 8, 2, 4, 64
	cfg.LeasesPerSite, cfg.RefreshInterval = 64, time.Minute

	// What the heap cannot see: a site's push ticker keeps its GRIS and
	// sensors, and a registration still in flight its provider's
	// attribute map, per-site and per-node costs. At this refresh period
	// the second site of a cell pushes at the horizon, and a run cell's
	// engine still holds no event.
	c := newCell(1, cfg, 0, 0, cfg.Sites/cfg.Regions)
	c.run()
	if n := c.eng.Pending(); n != 0 || c.sites != nil {
		t.Errorf("a finished cell has %d pending events and %d sites, want none", n, len(c.sites))
	}

	retainedHeap(cfg)
	small := retainedHeap(cfg)
	cfg.LeasesPerSite *= 4
	large := retainedHeap(cfg)
	if large > small+small/2+64<<10 {
		t.Errorf("a report holds %d B of heap at %d leases a site and %d B at %d: want it flat",
			small, cfg.LeasesPerSite/4, large, cfg.LeasesPerSite)
	}
	t.Logf("retained heap: %d B at %d leases a site, %d B at %d", small, cfg.LeasesPerSite/4, large, cfg.LeasesPerSite)
}
