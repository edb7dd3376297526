package core

import (
	"slices"

	"repro/internal/perf"
)

// Every sweep experiment is a grid of independent points: each point
// builds its own engine, rng, and federation inside the Run function of its
// Experiment declaration, so the only cross-goroutine traffic is each
// worker writing into its preassigned result slot. Rows are concatenated
// in fixed grid order afterwards, which makes the output byte-identical at
// any worker count; workers == 1 is the sequential reference and workers
// <= 0 means GOMAXPROCS.
//
// E10 and E11 ignore workers: each draws every site failure from one rng
// over one horizon, so their points are not independent.

// each computes row(i) for i in [0, n) across workers goroutines and
// returns the rows in grid order.
func each[R any](n, workers int, row func(i int) R) []R {
	rows := make([]R, n)
	perf.ForEach(n, workers, func(i int) { rows[i] = row(i) })
	return rows
}

// grid is each for points that compute several rows: it concatenates the
// points' rows in grid order.
func grid[R any](n, workers int, cell func(i int) []R) []R {
	return slices.Concat(each(n, workers, cell)...)
}
