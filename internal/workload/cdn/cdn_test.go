package cdn

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/snaptest"
)

// TestCDNWorkerIndependence: cells run on private engines, so the table
// must be identical at any worker count.
func TestCDNWorkerIndependence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Requests = 120
	one := Curve(7, cfg, CurveProfiles(), 5*time.Minute, 1).String()
	many := Curve(7, cfg, CurveProfiles(), 5*time.Minute, 4).String()
	if one != many {
		t.Fatalf("curve differs across worker counts:\n-- workers=1 --\n%s-- workers=4 --\n%s", one, many)
	}
}

// TestCDNShape asserts the paper's qualitative claims directly, so a
// pinned-output regeneration cannot silently absorb a regression: striping
// multiplies loss-limited throughput (faster mean fetch everywhere), and
// overlay multipath completes at least as many fetches under partition
// churn as single-stream does.
func TestCDNShape(t *testing.T) {
	for _, prof := range CurveProfiles() {
		cfg := DefaultConfig()
		horizon := 10 * time.Minute

		cfg.Striped = false
		single := New(42, cfg, prof, horizon)
		single.Eng.RunUntil(horizon)

		cfg.Striped = true
		striped := New(42, cfg, prof, horizon)
		striped.Eng.RunUntil(horizon)

		ss, st := single.Stats, striped.Stats
		if st.Done == 0 || ss.Done == 0 {
			t.Fatalf("%s: no completed fetches (single %d, striped %d)", prof.Name, ss.Done, st.Done)
		}
		if st.MeanFetch() >= ss.MeanFetch() {
			t.Errorf("%s: striped mean fetch %v not faster than single %v", prof.Name, st.MeanFetch(), ss.MeanFetch())
		}
		if st.Failed > ss.Failed {
			t.Errorf("%s: striped failed %d > single failed %d — overlay should ride out churn", prof.Name, st.Failed, ss.Failed)
		}
		if got := ss.Hits + ss.Coalesced + ss.Fetches; got != ss.Requests {
			t.Errorf("%s: single request accounting %d ≠ %d", prof.Name, got, ss.Requests)
		}
	}
}

// TestForkVsColdCDN proves the whole scenario graph — caches, in-flight
// fetches, stats, fault windows, tracer counters, and the underlying
// fluid allocator — rewinds exactly on Fork: a run forked mid-churn must
// be byte-identical to a cold one.
func TestForkVsColdCDN(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 3
	}
	profiles := CurveProfiles()
	cfg := DefaultConfig()
	cfg.Requests = 150
	snaptest.Scenario{
		Name: "cdn.churn",
		Build: func(seed int64) (*sim.Engine, func() []byte) {
			s := New(seed, cfg, profiles[1+int(seed)%2], 6*time.Minute)
			render := func() []byte {
				var b bytes.Buffer
				fmt.Fprintf(&b, "%+v\n", s.Stats)
				fmt.Fprintf(&b, "hits=%d misses=%d failed=%d\n",
					s.tr.Counter("cdn.hits").Value(), s.tr.Counter("cdn.misses").Value(), s.tr.Counter("cdn.fetch_failed").Value())
				fmt.Fprintf(&b, "faults applied=%d revoked=%d\n", s.Inj.AppliedN, s.Inj.RevokedN)
				for p := range s.cache {
					fmt.Fprintf(&b, "p%d cached=%d\n", p, len(s.cache[p]))
				}
				fmt.Fprintf(&b, "origin sent=%.0f\n", s.Net.Host("origin").BytesSent)
				return b.Bytes()
			}
			return s.Eng, render
		},
		WarmUntil: 90 * time.Second,
		Horizon:   6 * time.Minute,
	}.Run(t, snaptest.Seeds(1, n))
}
