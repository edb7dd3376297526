// Package repro_test is the benchmark harness: one testing.B per paper
// artifact (Table 1, Figures 1-2) and one sub-benchmark per declared
// table experiment (E3-E11, A1-A3), each running the experiment cmd/gridlab
// prints at a grid small enough to iterate. Run with
//
//	go test -bench=. -benchmem
//
// The artifact benchmarks report experiment-specific metrics via
// b.ReportMetric so shapes can be compared across runs; bench time
// measures the cost of regenerating the artifact, not any physical-system
// claim.
package repro_test

import (
	"io"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
)

func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RenderTable1(io.Discard)
	}
	b.ReportMetric(float64(len(core.Table1())), "abbreviations")
}

func BenchmarkFigure1Sweep(b *testing.B) {
	var pts []core.Fig1Point
	for i := 0; i < b.N; i++ {
		pts = core.F1.Run(42, 8, 1)
	}
	for _, p := range pts {
		switch p.Stack {
		case core.StackGlobus:
			b.ReportMetric(p.Functionality, "globus-functionality")
			b.ReportMetric(p.Autonomy, "globus-autonomy")
		case core.StackPlanetLab:
			b.ReportMetric(p.Functionality, "planetlab-functionality")
			b.ReportMetric(p.Autonomy, "planetlab-autonomy")
		}
	}
}

func BenchmarkFigure2SHARPFlow(b *testing.B) {
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := core.Figure2(42)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.ValidateFigure2(res); err != nil {
			b.Fatal(err)
		}
		steps = len(res.Trace)
	}
	b.ReportMetric(float64(steps), "protocol-steps")
}

// BenchmarkExperiments runs each declared table experiment, sequentially
// at seed 42, at a benchmark-sized grid.
func BenchmarkExperiments(b *testing.B) {
	type bench struct {
		name string
		run  func()
	}
	var benches []bench
	for _, n := range []int{10, 50, 100} {
		benches = append(benches, bench{"E3/sites=" + strconv.Itoa(n), func() { core.E3.Run(42, []int{n}, 1) }})
	}
	benches = append(benches,
		bench{"E4", func() {
			core.E4.Run(42, core.ProxyGrid{Lifetimes: []time.Duration{time.Hour, 8 * time.Hour, 64 * time.Hour}, Jobs: 200}, 1)
		}},
		bench{"E5", func() { core.E5.Run(42, core.DelegationGrid{Sites: 6, Ops: 20, Churns: []float64{0.3}}, 1) }},
		bench{"E6", func() { core.E6.Run(42, core.AllocationGrid{Nodes: 8, Services: 200}, 1) }},
	)
	for _, h := range []int{0, 4, 8} {
		benches = append(benches, bench{"E7/dialects=" + strconv.Itoa(h), func() {
			core.E7.Run(42, core.HeteroGrid{Dialects: []int{h}, Jobs: 100}, 1)
		}})
	}
	benches = append(benches,
		bench{"E8", func() {
			core.E8.Run(42, core.TransferGrid{Bytes: 100e6, Losses: []float64{0, 0.01}, Stripes: []int{1, 8}}, 1)
		}},
		bench{"E9", func() { core.E9.Run(42, []float64{0.5, 1.0, 2.0, 3.0}, 1) }},
		bench{"E10", func() { core.E10.Run(42, core.AvailGrid{Ks: []int{1, 2, 4, 8}, Horizon: 30 * 24 * time.Hour}, 1) }},
		bench{"E11", func() { core.E11.Run(42, 30*24*time.Hour, 1) }},
		bench{"A1", func() { core.A1.Run(42, core.BackfillGrid{Slots: 16, Jobs: 120}, 1) }},
		bench{"A2", func() { core.A2.Run(42, 200e6, 1) }},
		bench{"A3", func() {
			core.A3.Run(42, core.RefreshGrid{Periods: []time.Duration{time.Minute, 10 * time.Minute}, Resources: 100}, 1)
		}},
	)
	for _, e := range benches {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.run()
			}
		})
	}
}
