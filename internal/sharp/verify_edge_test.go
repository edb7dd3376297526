package sharp

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
)

// TestVerifyWindowEdges pins the exact boundary semantics of the leaf
// validity window: [NotBefore, NotAfter) — inclusive start, exclusive
// end.
func TestVerifyWindowEdges(t *testing.T) {
	f := newFixture(t)
	tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 10*time.Minute, hour)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		now     time.Duration
		wantErr error
	}{
		{"before window", 10*time.Minute - time.Nanosecond, ErrExpired},
		{"notBefore == now (inclusive)", 10 * time.Minute, nil},
		{"mid window", 30 * time.Minute, nil},
		{"last valid instant", hour - time.Nanosecond, nil},
		{"notAfter == now (exclusive)", hour, ErrExpired},
		{"after window", hour + time.Minute, ErrExpired},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tk.Verify(f.auth.signer.Public(), tc.now)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Verify(now=%v) = %v; want %v", tc.now, err, tc.wantErr)
			}
		})
	}
}

// TestRedeemClockSkewEdges drives the same window edges through
// Authority.Redeem under clock skew: a fast site clock (positive skew)
// expires tickets early, a slow one (negative skew) refuses
// not-yet-valid tickets the holder believes are live.
func TestRedeemClockSkewEdges(t *testing.T) {
	cases := []struct {
		name    string
		skew    time.Duration
		nb, na  time.Duration
		wantErr error
	}{
		{"no skew, live", 0, 0, hour, nil},
		{"fast clock expires early", 45 * time.Minute, 0, 30 * time.Minute, ErrExpired},
		{"fast clock inside grace", 30*time.Minute - RedeemGrace, 0, 30 * time.Minute, ErrExpired},
		{"fast clock just outside grace", 30*time.Minute - RedeemGrace - time.Nanosecond, 0, 30 * time.Minute, nil},
		{"slow clock sees future ticket", -time.Minute, 0, hour, ErrExpired},
		{"slow clock, early-enough start", -time.Minute, -time.Minute, hour, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			nb := tc.nb
			if nb < 0 {
				// IssueTicket offsets are absolute engine times; model an
				// "already valid for a while" ticket by advancing the engine
				// instead of issuing into the past.
				f.eng.RunUntil(-nb)
				nb = 0
			}
			tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, nb, tc.na)
			if err != nil {
				t.Fatal(err)
			}
			f.auth.SetClockSkew(tc.skew)
			if got := f.auth.skew; got != tc.skew {
				t.Fatalf("ClockSkew() = %v; want %v", got, tc.skew)
			}
			_, err = f.auth.Redeem(tk)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Redeem(skew=%v, window=[%v,%v)) = %v; want %v",
					tc.skew, tc.nb, tc.na, err, tc.wantErr)
			}
		})
	}
}

// TestMultiHopWidenRejected walks a three-hop delegation chain where
// every link narrows correctly except the last, whose amount exceeds
// its parent: Verify must pinpoint it as ErrAmountWidened (not a
// signature or chain error — the claim is validly signed by the
// rightful holder).
func TestMultiHopWidenRejected(t *testing.T) {
	f := newFixture(t)
	root, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 4, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	mid := identity.NewPrincipal("reseller", f.rng)
	hop1, err := root.Delegate(f.agent.signer, mid.Name, mid.Public(), 2, 0, hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Honest sub-delegation of the narrowed amount still verifies.
	ok, err := hop1.Delegate(mid, f.sm.Name, f.sm.Public(), 2, 0, hour, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Verify(f.auth.signer.Public(), time.Minute); err != nil {
		t.Fatalf("honest 3-hop chain: %v", err)
	}
	// Delegate itself refuses to widen...
	if _, err := hop1.Delegate(mid, f.sm.Name, f.sm.Public(), 3, 0, hour, 3); !errors.Is(err, ErrAmountWidened) {
		t.Fatalf("widening Delegate = %v; want ErrAmountWidened", err)
	}
	// ...so forge the widened third hop directly: a validly signed claim
	// for 3 CPU hanging off the 2-CPU hop. Only the narrowing rule can
	// catch it.
	widened := forgeChild(hop1, mid, f.sm, 3, 4)
	if err := widened.Verify(f.auth.signer.Public(), time.Minute); !errors.Is(err, ErrAmountWidened) {
		t.Fatalf("widened 3-hop chain = %v; want ErrAmountWidened", err)
	}
	if _, err := f.auth.Redeem(widened); !errors.Is(err, ErrAmountWidened) {
		t.Fatalf("redeem widened chain = %v; want ErrAmountWidened", err)
	}
}

// TestShortIssuerKeyRejected: a delegated link carries whatever issuer key
// its presenter wrote, and ed25519.Verify panics on one of the wrong
// length. Both walks (holder-side Verify, the authority's memoized Redeem)
// must refuse the ticket instead.
func TestShortIssuerKeyRejected(t *testing.T) {
	f := newFixture(t)
	root, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	sold, err := root.Delegate(f.agent.signer, f.sm.Name, f.sm.Public(), 1, 0, hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Ticket{Chain: append([]Claim(nil), sold.Chain...)}
	bad.Chain[1].IssuerKey = bad.Chain[1].IssuerKey[:31]
	if err := bad.Verify(f.auth.signer.Public(), time.Minute); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Verify = %v; want ErrBadSignature", err)
	}
	if _, err := f.auth.Redeem(bad); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Redeem = %v; want ErrBadSignature", err)
	}
}

// forgeChild appends a claim for amount to tk, signed by tk's rightful
// holder: what a holder who skips Delegate's own check can put on the
// wire. The signature is good, so only the amount rule can refuse it.
func forgeChild(tk *Ticket, holder, to *identity.Principal, amount float64, serial uint64) *Ticket {
	leaf := tk.Leaf()
	c := Claim{
		Site: leaf.Site, Type: leaf.Type, Amount: amount,
		NotBefore: leaf.NotBefore, NotAfter: leaf.NotAfter,
		Issuer: holder.Name, IssuerKey: holder.Public(),
		Holder: to.Name, HolderKey: to.Public(),
		Serial: serial, ParentHash: leaf.Hash(),
	}
	c.Sig = holder.Sign(c.tbs())
	return &Ticket{Chain: append(append([]Claim(nil), tk.Chain...), c)}
}

// amountCases is every amount a claim must not carry under a parent of
// 2, and the one edge it may. NaN is the one that used to get through:
// every comparison with it is false, so "amount <= 0 || amount >
// parent" waved it on.
var amountCases = []struct {
	name   string
	amount float64
	ok     bool
}{
	{"NaN", math.NaN(), false},
	{"+Inf", math.Inf(1), false},
	{"-Inf", math.Inf(-1), false},
	{"zero", 0, false},
	{"negative", -5, false},
	{"parent+1e-9", 2 + 1e-9, false},
	{"parent", 2, true},
}

// TestAmountRuleEveryLink: a child amount outside (0, parent] is
// ErrAmountWidened wherever in the chain it sits — Delegate refuses to
// write it, and when forged past Delegate the holder-side Verify, a
// cold authority and one whose memo already holds every honest link of
// the chain refuse to read it. Nothing is committed at the node manager.
func TestAmountRuleEveryLink(t *testing.T) {
	for _, depth := range []int{1, 3} {
		for _, tc := range amountCases {
			t.Run(fmt.Sprintf("depth%d/%s", depth, tc.name), func(t *testing.T) {
				f := newFixture(t)
				tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
				if err != nil {
					t.Fatal(err)
				}
				// Honest resales down to the link under test.
				holder := f.agent.signer
				for i := 1; i < depth; i++ {
					next := identity.NewPrincipal(fmt.Sprintf("reseller-%d", i), f.rng)
					if tk, err = tk.Delegate(holder, next.Name, next.Public(), 2, 0, hour, uint64(i)); err != nil {
						t.Fatal(err)
					}
					holder = next
				}
				want := ErrAmountWidened
				if tc.ok {
					want = nil
				}
				if _, err := tk.Delegate(holder, f.sm.Name, f.sm.Public(), tc.amount, 0, hour, 90); !errors.Is(err, want) {
					t.Errorf("Delegate(%v) = %v; want %v", tc.amount, err, want)
				}
				forged := forgeChild(tk, holder, f.sm, tc.amount, 91)
				if err := forged.Verify(f.auth.signer.Public(), time.Minute); !errors.Is(err, want) {
					t.Errorf("Verify = %v; want %v", err, want)
				}
				// Warm: the memo has proved the honest prefix and a sibling
				// of the forged leaf, so only the amount rule is left.
				sibling := forgeChild(tk, holder, f.sm, 1, 92)
				if err := sibling.verify(f.auth.signer.Public(), time.Minute, f.auth.sigCache); err != nil {
					t.Fatalf("honest sibling: %v", err)
				}
				if err := forged.verify(f.auth.signer.Public(), time.Minute, f.auth.sigCache); !errors.Is(err, want) {
					t.Errorf("warm verify = %v; want %v", err, want)
				}
				lease, err := f.auth.Redeem(forged)
				if !errors.Is(err, want) {
					t.Errorf("Redeem = %v; want %v", err, want)
				}
				if !tc.ok && (lease != nil || f.nm.Available(capability.CPU) != 10) {
					t.Errorf("refused redeem left lease %+v, %v CPU free of 10", lease, f.nm.Available(capability.CPU))
				}
			})
		}
	}
}

// TestAmountRuleRoot: the root is held to the same rule with no parent
// to compare against — positive and finite, else ErrBadChain. Only the
// authority's own key can sign such a root, so this is the last check
// behind IssueTicket's, which must refuse to mint one and must not let
// the attempt touch its issue budget.
func TestAmountRuleRoot(t *testing.T) {
	for _, tc := range amountCases {
		if tc.ok || tc.name == "parent+1e-9" {
			continue // a root has no parent: any positive finite amount is fine
		}
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			if tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, tc.amount, 0, hour); err == nil {
				t.Errorf("IssueTicket(%v) minted %+v", tc.amount, tk.Root())
			}
			// The refused request left the budget alone: 10 of 10 still
			// issues, one more is over.
			if _, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 10, 0, hour); err != nil {
				t.Errorf("full-capacity issue after the refusal: %v", err)
			}
			if _, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour); !errors.Is(err, ErrOverIssue) {
				t.Errorf("issue past capacity after the refusal = %v; want ErrOverIssue", err)
			}
			c := Claim{
				Site: "A", Type: capability.CPU, Amount: tc.amount, NotAfter: hour,
				Issuer: f.auth.signer.Name, IssuerKey: f.auth.signer.Public(),
				Holder: f.sm.Name, HolderKey: f.sm.Public(), Serial: 7,
			}
			c.Sig = f.auth.signer.Sign(c.tbs())
			root := &Ticket{Chain: []Claim{c}}
			if err := root.Verify(f.auth.signer.Public(), time.Minute); !errors.Is(err, ErrBadChain) {
				t.Errorf("Verify = %v; want ErrBadChain", err)
			}
			if _, err := f.auth.Redeem(root); !errors.Is(err, ErrBadChain) {
				t.Errorf("Redeem = %v; want ErrBadChain", err)
			}
			if got := f.nm.Available(capability.CPU); got != 10 {
				t.Errorf("Available = %v; want 10", got)
			}
		})
	}
}

// TestAgentSellRefusesBadAmounts: "inventory < amount" is false for NaN,
// so the sale used to proceed, delegate NaN and subtract it from the
// stock, after which the agent claimed NaN inventory forever.
func TestAgentSellRefusesBadAmounts(t *testing.T) {
	for _, tc := range amountCases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.agent.Acquire(tk); err != nil {
				t.Fatal(err)
			}
			sold, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, tc.amount, 0, hour)
			left := f.agent.Inventory("A", capability.CPU)
			if tc.ok {
				if err != nil || len(sold) != 1 || left != 0 {
					t.Fatalf("Sell(%v) = %d tickets, %v; %v left", tc.amount, len(sold), err, left)
				}
				return
			}
			if !errors.Is(err, ErrInventory) || sold != nil || left != 2 {
				t.Fatalf("Sell(%v) = %d tickets, %v; %v left of 2; want ErrInventory and the stock untouched", tc.amount, len(sold), err, left)
			}
		})
	}
}

// TestNaNDelegationCannotSwitchAdmissionOff is the defect end to end: an
// agent holding 1 CPU of a 10-CPU site hands its buyer a NaN claim. It
// used to verify, redeem into a NaN lease and add NaN to the node
// manager's committed total, after which Available was NaN and a
// dedicated mint of 1,000 CPU on the 10-CPU node succeeded.
func TestNaNDelegationCannotSwitchAdmissionOff(t *testing.T) {
	f := newFixture(t)
	root, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Delegate(f.agent.signer, f.sm.Name, f.sm.Public(), math.NaN(), 0, hour, 1); !errors.Is(err, ErrAmountWidened) {
		t.Errorf("Delegate(NaN) = %v; want ErrAmountWidened", err)
	}
	if lease, err := f.auth.Redeem(forgeChild(root, f.agent.signer, f.sm, math.NaN(), 1)); !errors.Is(err, ErrAmountWidened) {
		t.Errorf("Redeem(NaN leaf) = %+v, %v; want ErrAmountWidened", lease, err)
	}
	// A negative leaf is a forgery too, not an oversell conflict.
	if _, err := f.auth.Redeem(forgeChild(root, f.agent.signer, f.sm, -5, 2)); !errors.Is(err, ErrAmountWidened) || errors.Is(err, ErrConflict) {
		t.Errorf("Redeem(-5 leaf) = %v; want ErrAmountWidened", err)
	}
	if got := f.nm.Available(capability.CPU); got != 10 {
		t.Fatalf("Available = %v; want 10", got)
	}
	if c, err := f.nm.Mint(capability.MintRequest{Type: capability.CPU, Amount: 1000, Dedicated: true, NotAfter: hour}); !errors.Is(err, capability.ErrInsufficient) {
		t.Fatalf("Mint(1000 CPU dedicated) on a 10-CPU node = %+v, %v; want ErrInsufficient", c, err)
	}
}
