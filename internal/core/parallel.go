package core

import (
	"repro/internal/metrics"
	"repro/internal/perf"
)

// Every sweep experiment is a grid of independent points: each point
// builds its own engine, rng, and federation inside the row functions in
// experiments.go / figures.go, so the only cross-goroutine traffic is
// each worker writing into its preassigned result slot. Rows are reduced
// into the table in fixed grid order afterwards, which makes the output
// byte-identical at any worker count; workers == 1 is the sequential
// reference and workers <= 0 means GOMAXPROCS.
//
// E5 (RunDelegation) takes no workers: its operations share one
// federation and one churn rng, so its grid points are not independent.

// grid computes cell(i) for i in [0, n) across workers goroutines and
// reduces the cells' rows into one table in grid order.
func grid(header []string, n, workers int, cell func(i int) [][]any) *metrics.Table {
	cells := make([][][]any, n)
	perf.ForEach(n, workers, func(i int) { cells[i] = cell(i) })
	t := metrics.NewTable(header...)
	for _, rows := range cells {
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t
}
