// Package repro_test is the benchmark harness: one testing.B per paper
// artifact (Table 1, Figures 1-2) and per quantified-claim experiment
// (E3-E9), regenerating the same tables cmd/gridlab prints. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports experiment-specific metrics via b.ReportMetric
// so shapes can be compared across runs; bench time measures the cost of
// regenerating the artifact, not any physical-system claim.
package repro_test

import (
	"io"
	"strings"
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
		pts = core.Figure1(42, 8, 1)
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

func BenchmarkScaleSweep(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(strings.ReplaceAll("sites="+itoa(n), " ", ""), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RunScale(42, []int{n}, 1)
			}
		})
	}
}

func BenchmarkProxyLifetimeSweep(b *testing.B) {
	lifetimes := []time.Duration{time.Hour, 8 * time.Hour, 64 * time.Hour}
	var tab fmtStringer
	for i := 0; i < b.N; i++ {
		tab = core.RunProxyLifetime(42, lifetimes, 200, 1)
	}
	_ = tab
	b.ReportMetric(float64(len(lifetimes)), "sweep-points")
}

func BenchmarkDelegationStyles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunDelegation(42, 6, 20, 0.3)
	}
}

func BenchmarkAllocationDisciplines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunAllocation(42, 8, 200, 1)
	}
}

func BenchmarkHeterogeneityGlue(b *testing.B) {
	for _, h := range []int{0, 4, 8} {
		b.Run("dialects="+itoa(h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RunHeterogeneity(42, []int{h}, 100, 1)
			}
		})
	}
}

func BenchmarkDataGridTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunDataGrid(42, 100e6, []float64{0, 0.01}, []int{1, 8}, 1)
	}
}

func BenchmarkSHARPOversubscription(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunOversub(42, []float64{0.5, 1.0, 2.0, 3.0}, 1)
	}
}

type fmtStringer interface{ String() string }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func BenchmarkAvailabilitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunAvailability(42, []int{1, 2, 4, 8}, 30*24*time.Hour)
	}
}

func BenchmarkBackfillAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunBackfillAblation(42, 16, 120)
	}
}

func BenchmarkPoolingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunPoolingAblation(42, 200e6)
	}
}

func BenchmarkTTLAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunTTLAblation(42, []time.Duration{time.Minute, 10 * time.Minute}, 100)
	}
}

func BenchmarkManagedAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RunManagedAvailability(42, 3, 30*24*time.Hour)
	}
}
