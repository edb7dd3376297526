package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/gram"
)

// siteMemo reads the counters of the signature memo behind a site's
// gatekeeper. No exported path leads there (gatekeeper → policy →
// authenticator → verifier → memo), so the test reads it by reflection; a
// renamed field panics here rather than passing silently.
func siteMemo(s *Site) (memo uintptr, hits, misses int) {
	v := reflect.ValueOf(s.Gatekeeper).Elem().FieldByName("policy").Elem().
		FieldByName("Auth").Elem().Elem().FieldByName("Verifier").Elem().FieldByName("sigs")
	return v.Pointer(), int(v.Elem().FieldByName("Hits").Int()), int(v.Elem().FieldByName("Misses").Int())
}

// TestEachSiteProvesAProxyOnce: 50 jobs round-robin over six gatekeepers
// on one user+proxy chain cost two ed25519 verifications per site (12),
// not two per job (100); each site's memo is its own; and the memo rewinds
// with the federation, so a forked timeline pays what a cold one pays.
func TestEachSiteProvesAProxyOnce(t *testing.T) {
	f := Build(StackHybrid, Config{Seed: 18, StopPushers: true}, testSpecs(6, PlanetLabSitePolicy()))
	sites := f.JoinedSites()
	if len(sites) != 6 {
		t.Fatalf("%d joined sites, want 6", len(sites))
	}
	proxy, err := f.User("alice").Delegate("alice/p", f.Eng.Now(), 12*time.Hour, nil, f.Rng)
	if err != nil {
		t.Fatal(err)
	}
	snap := f.Eng.Snapshot()

	const jobs = 50
	admit := func() {
		t.Helper()
		accepted := 0
		for i := 0; i < jobs; i++ {
			gram.Submit(f.Net, "vo-broker", sites[i%len(sites)].Host, gram.SubmitRequest{
				Cred: proxy,
				Spec: gram.JobSpec{RSL: "&(executable=probe)(count=1)(maxWallTime=1800)", ActualRun: time.Minute},
			}, 30*time.Second, func(_ gram.SubmitReply, err error) {
				if err != nil {
					t.Errorf("job %d: %v", i, err)
					return
				}
				accepted++
			})
			f.Eng.RunUntil(f.Eng.Now() + 10*time.Second)
		}
		if accepted != jobs {
			t.Fatalf("%d of %d jobs accepted", accepted, jobs)
		}
		seen := map[uintptr]bool{}
		totalHits, totalMisses := 0, 0
		for _, s := range sites {
			memo, hits, misses := siteMemo(s)
			if seen[memo] {
				t.Errorf("site %s shares its signature memo with another site", s.Spec.Name)
			}
			seen[memo] = true
			if misses != 2 {
				t.Errorf("site %s ran %d verifications, want 2", s.Spec.Name, misses)
			}
			totalHits, totalMisses = totalHits+hits, totalMisses+misses
		}
		if totalMisses != 12 || totalHits != 2*jobs-12 {
			t.Errorf("federation: %d verifications, %d memo hits; want 12, %d", totalMisses, totalHits, 2*jobs-12)
		}
	}
	admit()
	snap.Fork()
	for _, s := range sites {
		if _, hits, misses := siteMemo(s); hits != 0 || misses != 0 {
			t.Fatalf("site %s after fork: hits=%d misses=%d, want the memo rewound to empty", s.Spec.Name, hits, misses)
		}
	}
	admit()
}
