package sharp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sim"
)

const hour = time.Hour

type fixture struct {
	eng   *sim.Engine
	auth  *Authority
	nm    *capability.NodeManager
	agent *Agent
	sm    *identity.Principal
	rng   *rand.Rand
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(5))
	signer := identity.NewPrincipal("authority@A", rng)
	nm := capability.NewNodeManager("A", eng, rng, map[capability.ResourceType]float64{
		capability.CPU: 10,
	})
	auth := NewAuthority(eng, "A", signer, nm, map[capability.ResourceType]float64{
		capability.CPU: 10,
	})
	agent := NewAgent(identity.NewPrincipal("agent-1", rng))
	sm := identity.NewPrincipal("service-manager", rng)
	return &fixture{eng: eng, auth: auth, nm: nm, agent: agent, sm: sm, rng: rng}
}

func TestIssueVerifyRedeem(t *testing.T) {
	f := newFixture(t)
	tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 4, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Verify(f.auth.signer.Public(), time.Minute); err != nil {
		t.Fatal(err)
	}
	lease, err := f.auth.Redeem(tk)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Amount != 4 || lease.Site != "A" {
		t.Errorf("lease = %+v", lease)
	}
	// The lease is backed by a real bindable capability.
	if _, err := f.nm.Bind(lease.CapID); err != nil {
		t.Errorf("lease capability: %v", err)
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	if _, err := f.auth.Redeem(tk); err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Redeem(tk); !errors.Is(err, ErrDoubleSpend) {
		t.Errorf("second redeem: %v", err)
	}
}

func TestDelegationChainRedeems(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 6, 0, hour)
	f.agent.Acquire(tk)
	subs, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 4, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Leaf().Amount != 4 {
		t.Fatalf("subs = %+v", subs)
	}
	if len(subs[0].Chain) != 2 {
		t.Errorf("chain length = %d", len(subs[0].Chain))
	}
	lease, err := f.auth.Redeem(subs[0])
	if err != nil {
		t.Fatal(err)
	}
	if lease.Amount != 4 {
		t.Errorf("lease amount = %v", lease.Amount)
	}
	if f.agent.Inventory("A", capability.CPU) != 2 {
		t.Errorf("inventory = %v", f.agent.Inventory("A", capability.CPU))
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	evil := *tk
	evil.Chain = append([]Claim(nil), tk.Chain...)
	evil.Chain[0].Amount = 10 // tamper
	if _, err := f.auth.Redeem(&evil); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered: %v", err)
	}
}

// TestSubMicroAmountTamperRejected: the signature covers the amount's
// exact bits, so a root's 1 rewritten to 1.0000004, which rounds to the
// same millionths, still fails Redeem.
func TestSubMicroAmountTamperRejected(t *testing.T) {
	f := newFixture(t)
	tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	tk.Chain[0].Amount = 1.0000004
	if _, err := f.auth.Redeem(tk); !errors.Is(err, ErrBadSignature) {
		t.Errorf("amount 1 rewritten to 1.0000004: %v, want %v", err, ErrBadSignature)
	}
}

func TestWidenedDelegationRejected(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	if _, err := tk.Delegate(f.agent.signer, f.sm.Name, f.sm.Public(), 5, 0, hour, 1); !errors.Is(err, ErrAmountWidened) {
		t.Errorf("widen: %v", err)
	}
	if _, err := tk.Delegate(f.agent.signer, f.sm.Name, f.sm.Public(), 1, 0, 2*hour, 1); !errors.Is(err, ErrIntervalGrew) {
		t.Errorf("grow interval: %v", err)
	}
}

func TestNonHolderCannotDelegate(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	thief := identity.NewPrincipal("thief", f.rng)
	if _, err := tk.Delegate(thief, "x", thief.Public(), 1, 0, hour, 1); !errors.Is(err, ErrNotHolder) {
		t.Errorf("thief delegation: %v", err)
	}
}

func TestSplicedChainRejected(t *testing.T) {
	f := newFixture(t)
	// Build two independent tickets, then splice agent-2's delegation
	// under agent-1's root.
	tk1, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 5, 0, hour)
	agent2 := NewAgent(identity.NewPrincipal("agent-2", f.rng))
	tk2, _ := f.auth.IssueTicket(agent2.Name, agent2.Key(), capability.CPU, 5, 0, hour)
	sub2, err := tk2.Delegate(agent2.signer, f.sm.Name, f.sm.Public(), 3, 0, hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	spliced := &Ticket{Chain: []Claim{tk1.Chain[0], sub2.Chain[1]}}
	if _, err := f.auth.Redeem(spliced); !errors.Is(err, ErrBadChain) {
		t.Errorf("spliced: %v", err)
	}
}

func TestExpiredTicket(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	f.eng.RunUntil(2 * hour)
	if _, err := f.auth.Redeem(tk); !errors.Is(err, ErrExpired) {
		t.Errorf("expired: %v", err)
	}
}

func TestWrongSiteRejected(t *testing.T) {
	f := newFixture(t)
	signerB := identity.NewPrincipal("authority@B", f.rng)
	nmB := capability.NewNodeManager("B", f.eng, f.rng, map[capability.ResourceType]float64{capability.CPU: 5})
	authB := NewAuthority(f.eng, "B", signerB, nmB, map[capability.ResourceType]float64{capability.CPU: 5})
	tkB, _ := authB.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	if _, err := f.auth.Redeem(tkB); !errors.Is(err, ErrWrongSite) {
		t.Errorf("cross-site redeem: %v", err)
	}
}

func TestOversellBound(t *testing.T) {
	f := newFixture(t)
	f.auth.OversellFactor = 2 // may issue 20 CPU of soft claims
	for i := 0; i < 4; i++ {
		if _, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 5, 0, hour); err != nil {
			t.Fatalf("issue %d: %v", i, err)
		}
	}
	if _, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour); !errors.Is(err, ErrOverIssue) {
		t.Errorf("beyond oversell: %v", err)
	}
}

func TestOversubscriptionConflictsAtRedeem(t *testing.T) {
	// The E9 mechanism: with factor 2, all tickets issue but only the
	// first capacity's worth of redeems succeed.
	f := newFixture(t)
	f.auth.OversellFactor = 2
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 5, 0, hour)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	ok, conflict := 0, 0
	for _, tk := range tickets {
		if _, err := f.auth.Redeem(tk); err == nil {
			ok++
		} else if errors.Is(err, ErrConflict) {
			conflict++
		} else {
			t.Fatalf("unexpected: %v", err)
		}
	}
	if ok != 2 || conflict != 2 {
		t.Errorf("ok=%d conflict=%d, want 2/2 (capacity 10, tickets 4×5)", ok, conflict)
	}
	if f.auth.RedeemOK != 2 || f.auth.RedeemConflict != 2 {
		t.Errorf("counters %d/%d", f.auth.RedeemOK, f.auth.RedeemConflict)
	}
}

func TestLeaseReleaseReturnsCapacity(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 10, 0, hour)
	lease, err := f.auth.Redeem(tk)
	if err != nil {
		t.Fatal(err)
	}
	if f.nm.Available(capability.CPU) != 0 {
		t.Fatal("capacity not committed")
	}
	f.auth.ReleaseLease(lease)
	if f.nm.Available(capability.CPU) != 10 {
		t.Errorf("capacity not returned: %v", f.nm.Available(capability.CPU))
	}
}

func TestAgentSellSpansStockedTickets(t *testing.T) {
	f := newFixture(t)
	t1, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 3, 0, hour)
	t2, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 3, 0, hour)
	f.agent.Acquire(t1)
	f.agent.Acquire(t2)
	subs, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 5, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("subs = %d tickets", len(subs))
	}
	total := 0.0
	for _, s := range subs {
		lease, err := f.auth.Redeem(s)
		if err != nil {
			t.Fatal(err)
		}
		total += lease.Amount
	}
	if total != 5 {
		t.Errorf("total leased = %v", total)
	}
	if got := f.agent.Inventory("A", capability.CPU); got != 1 {
		t.Errorf("inventory = %v", got)
	}
}

func TestAgentSellInsufficient(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	f.agent.Acquire(tk)
	if _, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 3, 0, hour); !errors.Is(err, ErrInventory) {
		t.Errorf("oversell from stock: %v", err)
	}
}

func TestAgentAcquireRequiresHolding(t *testing.T) {
	f := newFixture(t)
	other := identity.NewPrincipal("other", f.rng)
	tk, _ := f.auth.IssueTicket("other", other.Public(), capability.CPU, 2, 0, hour)
	if err := f.agent.Acquire(tk); !errors.Is(err, ErrNotHolder) {
		t.Errorf("acquire foreign ticket: %v", err)
	}
}

func TestSubdelegationDepth(t *testing.T) {
	// authority -> agent -> sub-agent -> service manager: three-link
	// chains must verify and redeem.
	f := newFixture(t)
	subAgent := NewAgent(identity.NewPrincipal("sub-agent", f.rng))
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 8, 0, hour)
	f.agent.Acquire(tk)
	mid, err := f.agent.Sell(subAgent.Name, subAgent.Key(), "A", capability.CPU, 6, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	subAgent.Acquire(mid[0])
	leafTickets, err := subAgent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 2, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(leafTickets[0].Chain) != 3 {
		t.Errorf("chain depth = %d", len(leafTickets[0].Chain))
	}
	if _, err := f.auth.Redeem(leafTickets[0]); err != nil {
		t.Errorf("redeem depth-3 chain: %v", err)
	}
}

// Property: however an agent splits its stock across buyers, the total
// redeemable amount never exceeds the issued root amount, and every
// individually sold ticket verifies.
func TestConservationProperty(t *testing.T) {
	f := func(cuts []uint8) bool {
		fx := struct {
			eng *sim.Engine
			rng *rand.Rand
		}{sim.NewEngine(2), rand.New(rand.NewSource(9))}
		signer := identity.NewPrincipal("auth", fx.rng)
		nm := capability.NewNodeManager("S", fx.eng, fx.rng, map[capability.ResourceType]float64{capability.CPU: 100})
		auth := NewAuthority(fx.eng, "S", signer, nm, map[capability.ResourceType]float64{capability.CPU: 100})
		agent := NewAgent(identity.NewPrincipal("ag", fx.rng))
		tk, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 100, 0, hour)
		if err != nil {
			return false
		}
		agent.Acquire(tk)
		buyer := identity.NewPrincipal("buyer", fx.rng)
		total := 0.0
		for _, c := range cuts {
			amt := float64(c%37) + 1
			subs, err := agent.Sell(buyer.Name, buyer.Public(), "S", capability.CPU, amt, 0, hour)
			if errors.Is(err, ErrInventory) {
				continue
			}
			if err != nil {
				return false
			}
			for _, s := range subs {
				if s.Verify(auth.signer.Public(), 0) != nil {
					return false
				}
				lease, err := auth.Redeem(s)
				if err != nil {
					return false
				}
				total += lease.Amount
			}
		}
		return total <= 100.000001 && total+agent.Inventory("S", capability.CPU) <= 100.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestIssueRejectsBadRequests(t *testing.T) {
	f := newFixture(t)
	if _, err := f.auth.IssueTicket("x", f.agent.Key(), capability.CPU, 0, 0, hour); err == nil {
		t.Error("zero amount issued")
	}
	if _, err := f.auth.IssueTicket("x", f.agent.Key(), capability.CPU, 1, hour, hour); err == nil {
		t.Error("empty interval issued")
	}
}

func TestVerifyEmptyTicket(t *testing.T) {
	f := newFixture(t)
	empty := &Ticket{}
	if err := empty.Verify(f.auth.signer.Public(), 0); !errors.Is(err, ErrBadChain) {
		t.Errorf("empty: %v", err)
	}
	if empty.Leaf() != nil || empty.Root() != nil {
		t.Error("empty ticket leaf/root non-nil")
	}
}

// leaseRecordsRef is the list the builder built before the reader: the
// live slots' records, in slot order.
func leaseRecordsRef(a *Authority) []LeaseRecord {
	var out []LeaseRecord
	for i := range a.leaseRecs {
		if a.leaseRecs[i].Lease != nil {
			out = append(out, a.leaseRecs[i])
		}
	}
	return out
}

// EachLeaseRecord visits the records the old copy held, in slot order,
// also after a release frees a slot that a later redeem reuses.
func TestEachLeaseRecordMatchesCopy(t *testing.T) {
	f := newFixture(t)
	var leases []*Lease
	for i := 0; i < 4; i++ {
		tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour)
		if err != nil {
			t.Fatal(err)
		}
		l, err := f.auth.Redeem(tk)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	check := func(step string) {
		t.Helper()
		var got []LeaseRecord
		f.auth.EachLeaseRecord(func(r LeaseRecord) { got = append(got, r) })
		want := leaseRecordsRef(f.auth)
		if len(got) != len(want) {
			t.Fatalf("%s: walked %d records, want %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: record %d = %s, want %s", step, i, got[i].Lease.ID, want[i].Lease.ID)
			}
		}
	}
	check("granted")
	f.auth.ReleaseLease(leases[1])
	check("released")
	tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Redeem(tk); err != nil {
		t.Fatal(err)
	}
	check("slot reused")
}
