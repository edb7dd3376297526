package sharp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/capability"
)

// sellOne buys `amount` CPU from the agent and requires a single ticket
// back (the fixture's stock is one contiguous block).
func sellOne(t *testing.T, f *fixture, amount float64, notBefore, notAfter time.Duration) *Ticket {
	t.Helper()
	tks, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, amount, notBefore, notAfter)
	if err != nil {
		t.Fatal(err)
	}
	if len(tks) != 1 {
		t.Fatalf("want one ticket, got %d", len(tks))
	}
	return tks[0]
}

// stock puts amount CPU of agent inventory in place.
func stock(t *testing.T, f *fixture, amount float64, notBefore, notAfter time.Duration) {
	t.Helper()
	tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, amount, notBefore, notAfter)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.agent.Acquire(tk); err != nil {
		t.Fatal(err)
	}
}

func TestRenewExtendsLeaseCapabilityAndRecord(t *testing.T) {
	f := newFixture(t)
	stock(t, f, 8, 0, 10*hour)
	lease, err := f.auth.Redeem(sellOne(t, f, 2, 0, 2*hour))
	if err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(90 * time.Minute) // renew at 75% of the term

	renewTk := sellOne(t, f, 2, f.eng.Now(), 4*hour)
	got, err := f.auth.Renew(lease.ID, renewTk)
	if err != nil {
		t.Fatal(err)
	}
	if got != lease || lease.NotAfter != 4*hour {
		t.Fatalf("lease not extended in place: %+v", lease)
	}
	// The backing capability moved with it.
	cap_, err := f.nm.Verify(lease.CapID)
	if err != nil || cap_.NotAfter != 4*hour {
		t.Fatalf("capability = %+v, err %v", cap_, err)
	}
	// And the audit record keeps the containment invariant intact.
	recs := leaseRecords(f.auth)
	if len(recs) != 1 {
		t.Fatalf("want one record, got %d", len(recs))
	}
	r := recs[0]
	if r.Renewals != 1 || r.LastRenewedAt != 90*time.Minute {
		t.Fatalf("record renewal bookkeeping: %+v", r)
	}
	if lease.NotAfter > r.LeafNotAfter || lease.NotAfter > r.RootNotAfter {
		t.Fatalf("record terms lag the renewed lease: lease %v leaf %v root %v",
			lease.NotAfter, r.LeafNotAfter, r.RootNotAfter)
	}
	if f.auth.RenewOK != 1 || f.auth.RenewRej != 0 {
		t.Fatalf("counters: ok=%d rej=%d", f.auth.RenewOK, f.auth.RenewRej)
	}
}

func TestRenewAcrossMultipleTickets(t *testing.T) {
	// Sell splits across stocked tickets; Renew must accept the set when
	// the amounts sum to the lease amount.
	f := newFixture(t)
	stock(t, f, 3, 0, 10*hour)
	lease, err := f.auth.Redeem(sellOne(t, f, 3, 0, 2*hour))
	if err != nil {
		t.Fatal(err)
	}
	stock(t, f, 1, 0, 10*hour)
	stock(t, f, 2, 0, 10*hour)
	f.eng.RunUntil(time.Hour)
	tks, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 3, f.eng.Now(), 5*hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(tks) < 2 {
		t.Fatalf("fixture did not split: %d tickets", len(tks))
	}
	if _, err := f.auth.Renew(lease.ID, tks...); err != nil {
		t.Fatal(err)
	}
	if lease.NotAfter != 5*hour {
		t.Fatalf("lease end %v, want 5h", lease.NotAfter)
	}
}

func TestRenewRejections(t *testing.T) {
	f := newFixture(t)
	f.auth.OversellFactor = 2 // the rejection probes burn soft inventory
	stock(t, f, 11, 0, 10*hour)
	lease, err := f.auth.Redeem(sellOne(t, f, 2, 0, 2*hour))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := f.auth.Renew("A/lease999", sellOne(t, f, 2, 0, 3*hour)); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("unknown lease: %v", err)
	}
	// Amount below the lease: soft claims must cover the hard claim.
	if _, err := f.auth.Renew(lease.ID, sellOne(t, f, 1, 0, 3*hour)); !errors.Is(err, ErrRenewAmount) {
		t.Errorf("short amount: %v", err)
	}
	// A ticket that does not extend past the current lease end.
	if _, err := f.auth.Renew(lease.ID, sellOne(t, f, 2, 0, 2*hour)); !errors.Is(err, ErrNotExtended) {
		t.Errorf("no extension: %v", err)
	}
	// Double spend: the same renewal ticket cannot be presented twice.
	tk := sellOne(t, f, 2, 0, 4*hour)
	if _, err := f.auth.Renew(lease.ID, tk); err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Renew(lease.ID, tk); !errors.Is(err, ErrDoubleSpend) {
		t.Errorf("double spend: %v", err)
	}
	// A released lease cannot be renewed.
	f.auth.ReleaseLease(lease)
	if _, err := f.auth.Renew(lease.ID, sellOne(t, f, 2, 0, 5*hour)); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("released lease: %v", err)
	}
}

func TestRedeemGraceRejectsNearExpiryDeterministically(t *testing.T) {
	f := newFixture(t)
	stock(t, f, 8, 0, 10*hour)

	// A ticket expiring exactly one RedeemGrace after "now" is rejected:
	// the redeem is racing notAfter within one delivery quantum, and the
	// outcome must not depend on event-queue ordering.
	f.eng.RunUntil(time.Hour)
	tk := sellOne(t, f, 1, 0, f.eng.Now()+RedeemGrace)
	if _, err := f.auth.Redeem(tk); !errors.Is(err, ErrExpired) {
		t.Fatalf("redeem inside grace: want ErrExpired, got %v", err)
	}
	// Just outside the grace window it succeeds.
	tk2 := sellOne(t, f, 1, 0, f.eng.Now()+RedeemGrace+time.Millisecond)
	if _, err := f.auth.Redeem(tk2); err != nil {
		t.Fatalf("redeem outside grace: %v", err)
	}
}

func TestRedeemGraceWithSkewedClock(t *testing.T) {
	// Regression: a site whose verification clock has drifted forward must
	// apply the same grace bound at its skewed "now", so the rejection is
	// a deterministic function of (ticket, skew), not of delivery order.
	f := newFixture(t)
	stock(t, f, 8, 0, 10*hour)
	f.eng.RunUntil(time.Hour)

	skew := 30 * time.Minute
	f.auth.SetClockSkew(skew)
	// Valid for 30m+grace of real time — but the authority's skewed clock
	// puts it inside the grace window.
	tk := sellOne(t, f, 1, 0, f.eng.Now()+skew+RedeemGrace)
	if _, err := f.auth.Redeem(tk); !errors.Is(err, ErrExpired) {
		t.Fatalf("skewed redeem inside grace: want ErrExpired, got %v", err)
	}
	// The same ticket becomes redeemable once the skew heals.
	f.auth.SetClockSkew(0)
	if _, err := f.auth.Redeem(tk); err != nil {
		t.Fatalf("redeem after skew heals: %v", err)
	}

	// Renew applies the same skewed-grace rule.
	lease, err := f.auth.Redeem(sellOne(t, f, 1, 0, 3*hour))
	if err != nil {
		t.Fatal(err)
	}
	f.auth.SetClockSkew(skew)
	renewTk := sellOne(t, f, 1, 0, f.eng.Now()+skew+RedeemGrace)
	if _, err := f.auth.Renew(lease.ID, renewTk); !errors.Is(err, ErrExpired) {
		t.Fatalf("skewed renew inside grace: want ErrExpired, got %v", err)
	}
}

func TestCapabilityExtend(t *testing.T) {
	f := newFixture(t)
	c, err := f.nm.Mint(capability.MintRequest{
		Type: capability.CPU, Amount: 2, Dedicated: true, NotBefore: 0, NotAfter: hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := f.nm.Available(capability.CPU)
	if err := f.nm.Extend(c.ID, 2*hour); err != nil {
		t.Fatal(err)
	}
	if c.NotAfter != 2*hour {
		t.Fatalf("NotAfter = %v", c.NotAfter)
	}
	if f.nm.Available(capability.CPU) != before {
		t.Fatal("extend changed committed capacity")
	}
	if err := f.nm.Extend(c.ID, 2*hour); err == nil {
		t.Fatal("non-extension accepted")
	}
	f.eng.RunUntil(3 * hour)
	if err := f.nm.Extend(c.ID, 4*hour); !errors.Is(err, capability.ErrExpiredCapability) {
		t.Fatalf("extend of lapsed capability: %v", err)
	}
}
