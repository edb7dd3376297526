package core

import (
	"reflect"
	"testing"
	"time"
)

// sameAtWorkers runs e at grid g with workers=1 and workers=8 and requires
// identical rows, floats included.
func sameAtWorkers[G, R any](e Experiment[G, R], g G) func(t *testing.T) {
	return func(t *testing.T) {
		t.Parallel()
		seq, par := e.Run(42, g, 1), e.Run(42, g, 8)
		if len(seq) == 0 {
			t.Fatal("no rows")
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=8 rows differ from workers=1:\n--- w1 ---\n%+v\n--- w8 ---\n%+v", seq, par)
		}
	}
}

// TestParallelSweepsByteIdentical gates the parallel experiment executor:
// every sweep must compute identical rows, and so print identical bytes, at
// workers=1 and workers=8. workers=1 is what the other tests run, so this
// also pins parallel output to the goldens they check.
func TestParallelSweepsByteIdentical(t *testing.T) {
	t.Run("scale", sameAtWorkers(E3, []int{4, 8, 12}))
	t.Run("proxylife", sameAtWorkers(E4, ProxyGrid{Lifetimes: []time.Duration{time.Hour, 8 * time.Hour, 64 * time.Hour}, Jobs: 200}))
	t.Run("delegation", sameAtWorkers(E5, DelegationGrid{Sites: 4, Ops: 10, Churns: []float64{0, 0.9}}))
	t.Run("allocation", sameAtWorkers(E6, AllocationGrid{Nodes: 4, Services: 40}))
	t.Run("heterogeneity", sameAtWorkers(E7, HeteroGrid{Dialects: []int{0, 1, 4}, Jobs: 60}))
	t.Run("datagrid", sameAtWorkers(E8, TransferGrid{Bytes: 1e7, Losses: []float64{0, 0.02}, Stripes: []int{1, 4}}))
	t.Run("oversub", sameAtWorkers(E9, []float64{0.5, 1, 2}))
	t.Run("backfill", sameAtWorkers(A1, BackfillGrid{Slots: 8, Jobs: 40}))
	t.Run("pooling", sameAtWorkers(A2, 50e6))
	t.Run("refresh", sameAtWorkers(A3, RefreshGrid{Periods: []time.Duration{time.Minute, 5 * time.Minute}, Resources: 20}))
	t.Run("fig1sweep", sameAtWorkers(F1Sweep, AlphaGrid{Sites: 6, Alphas: []float64{0, 0.5, 1}}))
	t.Run("probes", sameAtWorkers(ProbeMatrix, testSpecs(3, PlanetLabSitePolicy())))
}

// TestFigure1ParallelMatchesSequential compares the point structs, which
// include float fields, for exact equality across worker counts.
func TestFigure1ParallelMatchesSequential(t *testing.T) {
	seq := F1.Run(7, 8, 1)
	par := F1.Run(7, 8, 4)
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d: workers=1 %+v, workers=4 %+v", i, seq[i], par[i])
		}
	}
}
