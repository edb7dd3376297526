package sharp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/capability"
)

// TestReplayRejectedTyped is the double-redeem regression test: the
// same ticket presented twice must fail with the typed ErrReplayed
// (which also satisfies the legacy ErrDoubleSpend check).
func TestReplayRejectedTyped(t *testing.T) {
	f := newFixture(t)
	tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := f.auth.Redeem(tk)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.auth.Redeem(tk)
	if !errors.Is(err, ErrReplayed) {
		t.Fatalf("second redeem = %v; want ErrReplayed", err)
	}
	if !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("second redeem = %v; want ErrDoubleSpend too", err)
	}
	if f.auth.ReplayRejN != 1 {
		t.Fatalf("ReplayRejN = %d; want 1", f.auth.ReplayRejN)
	}
	// Releasing the lease must NOT un-burn the ticket: the claim was
	// consumed, not the resources.
	f.auth.ReleaseLease(lease)
	if _, err := f.auth.Redeem(tk); !errors.Is(err, ErrReplayed) {
		t.Fatalf("redeem after release = %v; want ErrReplayed", err)
	}
}

// TestReplayRejectedOnRenew covers the renewal path: a leaf spent by
// renewal is replay-rejected when presented again.
func TestReplayRejectedOnRenew(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	lease, err := f.auth.Redeem(tk)
	if err != nil {
		t.Fatal(err)
	}
	ext, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, 2*hour)
	if _, err := f.auth.Renew(lease.ID, ext); err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Renew(lease.ID, ext); !errors.Is(err, ErrReplayed) {
		t.Fatalf("renew with spent ticket = %v; want ErrReplayed", err)
	}
	if _, err := f.auth.Redeem(ext); !errors.Is(err, ErrReplayed) {
		t.Fatalf("redeem renewal-spent ticket = %v; want ErrReplayed", err)
	}
}

// TestReplayCacheBoundedPrune proves the cache is bounded: entries
// whose leaf expired more than replaySlack ago are pruned when the
// cache hits its cap, while live entries keep rejecting replays.
func TestReplayCacheBoundedPrune(t *testing.T) {
	f := newFixture(t)
	f.auth.replay = newReplayCache(4)
	var old []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 0.5, 0, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.auth.Redeem(tk); err != nil {
			t.Fatal(err)
		}
		old = append(old, tk)
	}
	if got := len(f.auth.replay.entries); got != 4 {
		t.Fatalf("cache len = %d; want 4", got)
	}
	// Jump past the old leaves' expiry plus the safety slack; the next
	// insert is over cap and must prune all four.
	f.eng.RunUntil(replaySlack + 2*time.Minute)
	now := f.eng.Now()
	live, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 0.5, now, now+hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Redeem(live); err != nil {
		t.Fatal(err)
	}
	if got := len(f.auth.replay.entries); got != 1 {
		t.Fatalf("cache len after prune = %d; want 1", got)
	}
	if f.auth.replay.PrunedN != 4 {
		t.Fatalf("PrunedN = %d; want 4", f.auth.replay.PrunedN)
	}
	// The live entry still rejects replays; the pruned tickets are
	// long-expired so they reject too — just as ErrExpired, never as a
	// successful redeem.
	if _, err := f.auth.Redeem(live); !errors.Is(err, ErrReplayed) {
		t.Fatalf("live replay = %v; want ErrReplayed", err)
	}
	if _, err := f.auth.Redeem(old[0]); !errors.Is(err, ErrExpired) {
		t.Fatalf("pruned stale ticket = %v; want ErrExpired", err)
	}
}

// TestReplayCacheKeepsLiveEntriesOverCap: pruning only ever removes
// safely-expired entries — a cache full of live tickets grows past its
// cap rather than forgetting a spendable claim.
func TestReplayCacheKeepsLiveEntriesOverCap(t *testing.T) {
	f := newFixture(t)
	f.auth.replay = newReplayCache(2)
	var tks []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 0.5, 0, hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.auth.Redeem(tk); err != nil {
			t.Fatalf("redeem %d: %v", i, err)
		}
		tks = append(tks, tk)
	}
	if got := len(f.auth.replay.entries); got != 4 {
		t.Fatalf("cache len = %d; want 4 (live entries never pruned)", got)
	}
	for i, tk := range tks {
		if _, err := f.auth.Redeem(tk); !errors.Is(err, ErrReplayed) {
			t.Fatalf("replay %d = %v; want ErrReplayed", i, err)
		}
	}
}
