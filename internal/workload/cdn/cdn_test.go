package cdn

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultlab"
	"repro/internal/sim"
	"repro/internal/sim/snaptest"
)

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

// firstInflight steps a scenario until a fetch is in flight and returns
// it. An event starts at most one fetch, and the first request always
// misses the empty caches, so the first fetch found is the only one.
func firstInflight(t *testing.T, s *Scenario) *fetch {
	t.Helper()
	for s.Eng.Step() {
		for p := range s.inflight {
			for _, ft := range s.inflight[p] {
				return ft
			}
		}
	}
	t.Fatal("the scenario ran out of events with no fetch in flight")
	return nil
}

// TestCutFetchMidFlight aims a partition at a fetch in flight, which no
// fault profile of `gridlab cdn` does: cutting origin–pN fails a
// single-stream pull there (fetchFail) and leaves the request accounting
// whole, while a striped pull under the same cut restripes its severed
// backlog onto the relay paths and completes.
func TestCutFetchMidFlight(t *testing.T) {
	horizon := 10 * time.Minute
	for _, striped := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Striped = striped
		s := New(42, cfg, faultlab.Quiet(), horizon)
		ft := firstInflight(t, s)
		if ft.flow == nil {
			t.Fatalf("striped=%v: fetch of object %d at p%d has no flow", striped, ft.obj, ft.proxy)
		}
		before := s.Stats
		failedFlows := s.tr.Counter("net.flows.failed").Value()

		s.Net.Partition("origin", s.names[ft.proxy], true)

		cut := s.Stats
		inflight := s.inflight[ft.proxy][ft.obj]
		if !striped {
			if cut.Failed != before.Failed+1 {
				t.Errorf("single: Failed %d after the cut, want %d", cut.Failed, before.Failed+1)
			}
			if inflight != nil {
				t.Errorf("single: the failed fetch of object %d is still in flight at p%d", ft.obj, ft.proxy)
			}
			if got := s.tr.Counter("net.flows.failed").Value(); got != failedFlows+1 {
				t.Errorf("single: net.flows.failed %d after the cut, want %d", got, failedFlows+1)
			}
		} else {
			if cut.Failed != before.Failed || inflight != ft {
				t.Errorf("striped: the cut failed the fetch (Failed %d → %d, in flight %v)", before.Failed, cut.Failed, inflight == ft)
			}
		}
		if got := cut.Hits + cut.Coalesced + cut.Fetches; got != cut.Requests {
			t.Errorf("striped=%v: Hits+Coalesced+Fetches = %d after the cut, want Requests %d", striped, got, cut.Requests)
		}

		s.Eng.RunUntil(horizon)
		st := s.Stats
		if got := st.Hits + st.Coalesced + st.Fetches; got != st.Requests {
			t.Errorf("striped=%v: Hits+Coalesced+Fetches = %d at the horizon, want Requests %d", striped, got, st.Requests)
		}
		if st.Done+st.Failed > st.Fetches {
			t.Errorf("striped=%v: Done %d + Failed %d > Fetches %d", striped, st.Done, st.Failed, st.Fetches)
		}
		if striped {
			if !s.cache[ft.proxy][ft.obj] || st.Failed != 0 {
				t.Errorf("striped: the cut fetch did not complete (cached %v, Failed %d)", s.cache[ft.proxy][ft.obj], st.Failed)
			}
			if got := s.tr.Counter("net.flows.failed").Value(); got != failedFlows {
				t.Errorf("striped: net.flows.failed %d, want %d: a pooled flow with a surviving path must not fail", got, failedFlows)
			}
		}
	}
}
