package core

import (
	"testing"
	"time"
)

// TestParallelSweepsByteIdentical gates the parallel experiment executor:
// every sweep must render a byte-identical table at workers=1 and
// workers=8. workers=1 is what the other tests run, so this also pins
// parallel output to the goldens they check.
func TestParallelSweepsByteIdentical(t *testing.T) {
	const seed = 42
	cases := []struct {
		name string
		run  func(workers int) string
	}{
		{"scale", func(w int) string {
			return RunScale(seed, []int{4, 8, 12}, w).String()
		}},
		{"proxylife", func(w int) string {
			return RunProxyLifetime(seed, []time.Duration{time.Hour, 8 * time.Hour, 64 * time.Hour}, 200, w).String()
		}},
		{"allocation", func(w int) string {
			return RunAllocation(seed, 4, 40, w).String()
		}},
		{"heterogeneity", func(w int) string {
			return RunHeterogeneity(seed, []int{0, 1, 4}, 60, w).String()
		}},
		{"datagrid", func(w int) string {
			return RunDataGrid(seed, 1e7, []float64{0, 0.02}, []int{1, 4}, w).String()
		}},
		{"oversub", func(w int) string {
			return RunOversub(seed, []float64{0.5, 1, 2}, w).String()
		}},
		{"fig1sweep", func(w int) string {
			return Figure1Sweep(seed, 6, []float64{0, 0.5, 1}, w).String()
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			seq := tc.run(1)
			par := tc.run(8)
			if seq != par {
				t.Fatalf("workers=8 output differs from workers=1:\n--- w1 ---\n%s\n--- w8 ---\n%s", seq, par)
			}
			if seq == "" {
				t.Fatal("empty table")
			}
		})
	}
}

// TestFigure1ParallelMatchesSequential compares the point structs, which
// include float fields, for exact equality across worker counts.
func TestFigure1ParallelMatchesSequential(t *testing.T) {
	seq := Figure1(7, 8, 1)
	par := Figure1(7, 8, 4)
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d: workers=1 %+v, workers=4 %+v", i, seq[i], par[i])
		}
	}
}
