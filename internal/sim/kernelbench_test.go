package sim_test

// Kernel microbenchmarks with no counterpart among the bench/ layer
// probes (which cover schedule/fire at 10k and 100k, snapshot, fork and
// fluid churn). Run with:
//
//	go test ./internal/sim -bench Kernel -benchmem

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkKernelScheduleFire1M builds a fresh engine per iteration,
// schedules 1M events over a spread of virtual times, and drains the
// queue — the kernel's push/pop churn path at the top of its range.
func BenchmarkKernelScheduleFire1M(b *testing.B) {
	const n = 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		for j := 0; j < n; j++ {
			e.Schedule(time.Duration(j%997)*time.Millisecond, func() {})
		}
		e.Run()
	}
}

// BenchmarkKernelCancelChurn10k schedules 10k events, cancels every
// other one (exercising lazy tombstones and compaction), and drains the
// rest.
func BenchmarkKernelCancelChurn10k(b *testing.B) {
	const n = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		evs := make([]sim.Event, 0, n)
		for j := 0; j < n; j++ {
			evs = append(evs, e.Schedule(time.Duration(j%997)*time.Millisecond, func() {}))
		}
		for j := 0; j < len(evs); j += 2 {
			e.Cancel(evs[j])
		}
		e.Run()
	}
}

// BenchmarkKernelTicker1k drives one ticker for 1k ticks per iteration —
// the steady-state node-recycling path, allocation-free after warmup.
func BenchmarkKernelTicker1k(b *testing.B) {
	const n = 1_000
	b.ReportAllocs()
	e := sim.NewEngine(1)
	count := 0
	tk := e.NewTicker(time.Second, func() { count++ })
	defer tk.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + time.Duration(n)*time.Second)
	}
}
