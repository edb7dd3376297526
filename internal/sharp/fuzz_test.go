package sharp_test

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/sim"
)

const (
	fuzzSite     = "A"
	fuzzCapacity = 10.0
	fuzzTerm     = 10 * time.Hour
)

// ticketKit is what every fuzz execution starts from: the keys of
// everyone who can sign, real chains of depth 1 to 4 cut from one
// authority, and internal/adversary's four forgeries of them.
type ticketKit struct {
	auth  *identity.Principal   // the site authority's signing key
	who   []*identity.Principal // auth, agent, r1, r2, sm, mallory
	bases []*sharp.Ticket
	donor *sharp.Ticket // a second honest chain, for splicing
}

// Indexes into ticketKit.who.
const (
	whoAuth = iota
	whoAgent
	whoR1
	whoR2
	whoSM
	whoMallory
)

func newTicketKit(t testing.TB) *ticketKit {
	rng := rand.New(rand.NewSource(20))
	k := &ticketKit{}
	for _, name := range []string{"authority@A", "agent", "reseller-1", "reseller-2", "sm", "mallory"} {
		k.who = append(k.who, identity.NewPrincipal(name, rng))
	}
	k.auth = k.who[whoAuth]
	mint, _ := k.newAuthority(0, 0)
	mint.SetOversellFactor(100)
	serial := uint64(0)
	// chain issues a 4-CPU root to the agent and resells it down the
	// given holders, one CPU narrower per hop.
	chain := func(holders ...int) *sharp.Ticket {
		tk, err := mint.IssueTicket(k.who[whoAgent].Name, k.who[whoAgent].Public(), capability.CPU, 4, 0, fuzzTerm)
		if err != nil {
			t.Fatal(err)
		}
		from := k.who[whoAgent]
		for i, h := range holders {
			serial++
			to := k.who[h]
			if tk, err = tk.Delegate(from, to.Name, to.Public(), float64(3-i), 0, fuzzTerm, serial); err != nil {
				t.Fatal(err)
			}
			from = to
		}
		return tk
	}
	d1, d2, d3, d4 := chain(), chain(whoSM), chain(whoR1, whoSM), chain(whoR1, whoR2, whoSM)
	k.donor = chain(whoR1, whoSM)
	k.bases = []*sharp.Ticket{d1, d2, d3, d4,
		adversary.WidenDelegation(d2, k.who[whoSM], 2, 90),
		adversary.TamperAmount(d3, 2),
		adversary.SelfIssuedRoot(k.who[whoMallory], fuzzSite, capability.CPU, 1, 0, fuzzTerm, 91),
		adversary.SpliceChains(d2, k.donor),
	}
	return k
}

// newAuthority is a fresh site around the kit's authority key, its
// engine advanced to at and its verification clock drifted by skew.
func (k *ticketKit) newAuthority(at, skew time.Duration) (*sharp.Authority, *capability.NodeManager) {
	eng := sim.NewEngine(1)
	eng.RunUntil(at)
	capacity := map[capability.ResourceType]float64{capability.CPU: fuzzCapacity}
	nm := capability.NewNodeManager(fuzzSite, eng, rand.New(rand.NewSource(1)), capacity)
	a := sharp.NewAuthority(eng, fuzzSite, k.auth, nm, capacity)
	a.SetClockSkew(skew)
	return a, nm
}

func cloneTicket(t *sharp.Ticket) *sharp.Ticket {
	out := &sharp.Ticket{Chain: append([]sharp.Claim(nil), t.Chain...)}
	for i := range out.Chain {
		c := &out.Chain[i]
		c.IssuerKey = append(ed25519.PublicKey(nil), c.IssuerKey...)
		c.HolderKey = append(ed25519.PublicKey(nil), c.HolderKey...)
		c.Sig = append([]byte(nil), c.Sig...)
	}
	return out
}

// ownKey copies a principal's public key: a later step may flip a bit of
// whatever key a claim carries, and must not reach the kit's.
func ownKey(p *identity.Principal) ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), p.Public()...)
}

// The script's operations, four bytes a step: operation, link, argument,
// position.
const (
	opFlipSig  = iota // flip a signature bit
	opField           // rewrite a signed field: site, issuer, holder, serial, parent hash, type
	opAmount          // rewrite the amount from fuzzAmounts
	opInterval        // widen, invert or empty the interval
	opKey             // nil, short, foreign or bit-flipped issuer or holder key
	opTruncate        // keep only the links before this one
	opDrop            // drop the link
	opDup             // duplicate the link
	opSwap            // swap two links
	opSplice          // graft the donor's leaf on, or a donor link in
	opResign          // someone re-signs the link as it now reads
	opExtend          // the leaf's holder delegates on, by a factor that may widen
	opCount
)

// opResign's argument: the low bits pick the signer; resignKeepKey
// leaves the claim's issuer key alone (a signature by the wrong key);
// resignRelink first points the claim at its parent as it now reads.
const (
	resignKeepKey = 0x40
	resignRelink  = 0x80
)

// fuzzAmounts is what opAmount writes, given the parent link's amount
// (the link's own, for a root).
func fuzzAmounts(parent float64) []float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e-7,
		parent, math.Nextafter(parent, math.Inf(1)), parent + 1e-9, 9.3e12}
}

func (k *ticketKit) mutate(tk *sharp.Ticket, script []byte) {
	for ; len(script) >= 4; script = script[4:] {
		op, l, arg, pos := script[0]%opCount, int(script[1]), script[2], int(script[3])
		if len(tk.Chain) == 0 {
			return
		}
		l %= len(tk.Chain)
		c := &tk.Chain[l]
		switch op {
		case opFlipSig:
			if len(c.Sig) > 0 {
				c.Sig[pos%len(c.Sig)] ^= 1 << (arg % 8)
			}
		case opField:
			switch arg % 6 {
			case 0:
				c.Site += "x"
			case 1:
				c.Issuer = c.Issuer[:pos%(len(c.Issuer)+1)]
			case 2:
				c.Holder += "x"
			case 3:
				c.Serial += uint64(pos) + 1
			case 4:
				c.ParentHash[pos%32] ^= 1 << (arg >> 5)
			case 5:
				c.Type = []capability.ResourceType{capability.CPU, capability.Memory}[pos%2]
			}
		case opAmount:
			parent := c.Amount
			if l > 0 {
				parent = tk.Chain[l-1].Amount
			}
			amounts := fuzzAmounts(parent)
			c.Amount = amounts[int(arg)%len(amounts)]
		case opInterval:
			switch arg % 4 {
			case 0:
				c.NotBefore -= time.Duration(pos) * time.Minute
			case 1:
				c.NotAfter += time.Duration(pos) * time.Hour
			case 2:
				c.NotBefore, c.NotAfter = c.NotAfter, c.NotBefore
			case 3:
				c.NotAfter = c.NotBefore
			}
		case opKey:
			key := &c.IssuerKey
			if arg&1 == 1 {
				key = &c.HolderKey
			}
			switch (arg >> 1) % 4 {
			case 0:
				*key = nil
			case 1:
				if len(*key) > 0 {
					*key = (*key)[:len(*key)-1]
				}
			case 2:
				*key = ownKey(k.who[whoMallory])
			case 3:
				if len(*key) > 0 {
					(*key)[pos%len(*key)] ^= 1 << (arg >> 5)
				}
			}
		case opTruncate:
			tk.Chain = tk.Chain[:l]
		case opDrop:
			tk.Chain = append(tk.Chain[:l:l], tk.Chain[l+1:]...)
		case opDup:
			if len(tk.Chain) < 8 {
				tk.Chain = append(tk.Chain[:l+1:l+1], tk.Chain[l:]...)
			}
		case opSwap:
			m := pos % len(tk.Chain)
			tk.Chain[l], tk.Chain[m] = tk.Chain[m], tk.Chain[l]
		case opSplice:
			donor := cloneTicket(k.donor).Chain
			if arg&1 == 0 && len(tk.Chain) < 8 {
				tk.Chain = append(tk.Chain, donor[len(donor)-1])
			} else {
				tk.Chain[l] = donor[pos%len(donor)]
			}
		case opResign:
			signer := k.who[int(arg&0x3f)%len(k.who)]
			if arg&resignKeepKey == 0 {
				c.Issuer, c.IssuerKey = signer.Name, ownKey(signer)
			}
			if arg&resignRelink != 0 && l > 0 {
				c.ParentHash = tk.Chain[l-1].Hash()
			}
			c.Sig = signer.Sign(c.TBS())
		case opExtend:
			leaf := tk.Leaf()
			for _, p := range k.who {
				if len(tk.Chain) < 8 && bytes.Equal(p.Public(), leaf.HolderKey) {
					*tk = *cloneTicket(adversary.WidenDelegation(tk, p, float64(arg)/64, uint64(pos)))
					break
				}
			}
		}
	}
}

// refVerify is the chain walk as it stood before the amount rule, plus
// the rule, written the long way round (an explicit IsNaN, no shared
// helper, ed25519.Verify with no memo): the oracle.
func refVerify(t *sharp.Ticket, key ed25519.PublicKey, now time.Duration) error {
	if len(t.Chain) == 0 {
		return sharp.ErrBadChain
	}
	if !bytes.Equal(key, t.Chain[0].IssuerKey) {
		return sharp.ErrBadChain
	}
	for i := range t.Chain {
		c := &t.Chain[i]
		if len(c.IssuerKey) != ed25519.PublicKeySize || !ed25519.Verify(c.IssuerKey, c.TBS(), c.Sig) {
			return sharp.ErrBadSignature
		}
		if i == 0 {
			if c.ParentHash != ([32]byte{}) {
				return sharp.ErrBadChain
			}
			if math.IsNaN(c.Amount) || math.IsInf(c.Amount, 0) || c.Amount <= 0 {
				return sharp.ErrBadChain
			}
			continue
		}
		parent := &t.Chain[i-1]
		if !bytes.Equal(parent.HolderKey, c.IssuerKey) || c.ParentHash != parent.Hash() {
			return sharp.ErrBadChain
		}
		if math.IsNaN(c.Amount) || c.Amount <= 0 || c.Amount > parent.Amount {
			return sharp.ErrAmountWidened
		}
		if c.NotBefore < parent.NotBefore || c.NotAfter > parent.NotAfter {
			return sharp.ErrIntervalGrew
		}
		if c.Site != parent.Site || c.Type != parent.Type {
			return sharp.ErrBadChain
		}
	}
	if leaf := t.Leaf(); now < leaf.NotBefore || now >= leaf.NotAfter {
		return sharp.ErrExpired
	}
	return nil
}

// refAuthority models what Redeem adds to the walk: the site check, the
// redeem grace, the replay memory and the node manager's admission.
type refAuthority struct {
	key  ed25519.PublicKey
	now  time.Duration
	free map[capability.ResourceType]float64
	seen map[[32]byte]bool
}

func newRefAuthority(key ed25519.PublicKey, now time.Duration) *refAuthority {
	return &refAuthority{key: key, now: now, seen: make(map[[32]byte]bool),
		free: map[capability.ResourceType]float64{capability.CPU: fuzzCapacity}}
}

func (r *refAuthority) redeem(t *sharp.Ticket) error {
	if t == nil {
		return sharp.ErrBadChain
	}
	if root := t.Root(); root != nil && root.Site != fuzzSite {
		return sharp.ErrWrongSite
	}
	if err := refVerify(t, r.key, r.now); err != nil {
		return err
	}
	leaf := t.Leaf()
	if leaf.NotAfter-r.now <= sharp.RedeemGrace {
		return sharp.ErrExpired
	}
	if r.seen[leaf.Hash()] {
		return sharp.ErrReplayed
	}
	if leaf.Amount > r.free[leaf.Type] {
		return sharp.ErrConflict
	}
	r.seen[leaf.Hash()] = true
	r.free[leaf.Type] -= leaf.Amount
	return nil
}

// verdict names an error by the sentinel it carries, so two walks agree
// when they refuse for the same typed reason, whatever the text.
func verdict(err error) string {
	if err == nil {
		return "accepted"
	}
	for _, s := range []error{sharp.ErrWrongSite, sharp.ErrBadChain, sharp.ErrBadSignature,
		sharp.ErrAmountWidened, sharp.ErrIntervalGrew, sharp.ErrExpired, sharp.ErrReplayed, sharp.ErrConflict} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "untyped: " + err.Error()
}

// checkGrant holds an accepted redeem to what the chain promised and the
// site to its capacity.
func checkGrant(t *testing.T, tk *sharp.Ticket, lease *sharp.Lease, nm *capability.NodeManager) {
	t.Helper()
	if root := tk.Root().Amount; !(lease.Amount > 0 && lease.Amount <= root) || lease.Amount != tk.Leaf().Amount {
		t.Fatalf("lease for %v CPU from a leaf of %v under a root of %v", lease.Amount, tk.Leaf().Amount, root)
	}
	if free := nm.Available(capability.CPU); !(free >= -1e-9 && free <= fuzzCapacity) {
		t.Fatalf("site has %v CPU free of %v after a grant", free, fuzzCapacity)
	}
}

// FuzzRedeemAgreesWithReference: whatever a holder does to a ticket, the
// walk does not panic and every form of it — the holder-side Verify, a
// Redeem at an authority that has seen nothing, a Redeem at one whose
// memo already holds the chains the mutant was cut from, and
// RedeemBatch — refuses or grants exactly as the reference does, for the
// same typed reason; and no grant ever exceeds the root's amount or
// leaves the node manager's free capacity anything but a number in
// [0, capacity]. base picks the chain, when the instant (minutes into
// the chains' 10 h term), skew the authority's clock drift (minutes).
func FuzzRedeemAgreesWithReference(f *testing.F) {
	k := newTicketKit(f)
	for base := range k.bases { // the honest chains and the adversary kit, untouched
		f.Add(byte(base), int16(60), int16(0), []byte{})
	}
	// The amount table of TestAmountRuleEveryLink, as scripts: the link's
	// rightful issuer rewrites its amount and signs what it wrote.
	for a := range fuzzAmounts(0) {
		f.Add(byte(1), int16(60), int16(0), []byte{opAmount, 1, byte(a), 0, opResign, 1, whoAgent | resignRelink, 0})
		f.Add(byte(3), int16(60), int16(0), []byte{opAmount, 3, byte(a), 0, opResign, 3, whoR2 | resignRelink, 0})
		f.Add(byte(0), int16(60), int16(0), []byte{opAmount, 0, byte(a), 0, opResign, 0, whoAuth, 0})
	}
	f.Add(byte(3), int16(60), int16(0), []byte{opFlipSig, 2, 3, 17})                             // flipped signature bit
	f.Add(byte(2), int16(60), int16(0), []byte{opField, 1, 3, 0})                                // serial rewritten under the signature
	f.Add(byte(2), int16(60), int16(0), []byte{opField, 2, 0, 0, opResign, 2, whoR1 | 0x80, 0})  // leaf moved to another site, re-signed
	f.Add(byte(1), int16(60), int16(0), []byte{opField, 1, 5, 1, opResign, 1, whoAgent, 0})      // leaf changes type
	f.Add(byte(0), int16(60), int16(0), []byte{opField, 0, 0, 0, opResign, 0, whoAuth, 0})       // a root for another site
	f.Add(byte(1), int16(60), int16(0), []byte{opInterval, 1, 1, 5, opResign, 1, whoAgent, 0})   // interval widened
	f.Add(byte(1), int16(60), int16(0), []byte{opInterval, 1, 2, 0, opResign, 1, whoAgent, 0})   // interval inverted
	f.Add(byte(2), int16(60), int16(0), []byte{opKey, 1, 0, 0})                                  // nil issuer key
	f.Add(byte(2), int16(60), int16(0), []byte{opKey, 1, 2, 0})                                  // 31-byte issuer key
	f.Add(byte(2), int16(60), int16(0), []byte{opKey, 1, 4, 0})                                  // foreign issuer key
	f.Add(byte(3), int16(60), int16(0), []byte{opTruncate, 0, 0, 0})                             // empty chain
	f.Add(byte(3), int16(60), int16(0), []byte{opTruncate, 2, 0, 0})                             // a reseller redeems its own link
	f.Add(byte(3), int16(60), int16(0), []byte{opDrop, 1, 0, 0})                                 // a hop removed
	f.Add(byte(3), int16(60), int16(0), []byte{opDup, 2, 0, 0})                                  // a hop twice
	f.Add(byte(3), int16(60), int16(0), []byte{opSwap, 1, 0, 2})                                 // two hops swapped
	f.Add(byte(1), int16(60), int16(0), []byte{opSplice, 0, 0, 0})                               // donor leaf grafted on
	f.Add(byte(2), int16(60), int16(0), []byte{opSplice, 1, 1, 1})                               // donor link spliced in
	f.Add(byte(0), int16(60), int16(0), []byte{opResign, 0, whoMallory, 0})                      // self-issued root
	f.Add(byte(1), int16(60), int16(0), []byte{opResign, 1, whoMallory | resignKeepKey, 0})      // signed with the wrong key
	f.Add(byte(1), int16(60), int16(0), []byte{opExtend, 0, 32, 1, opExtend, 0, 64, 2})          // sm resells half, then all of it
	f.Add(byte(1), int16(60), int16(0), []byte{opExtend, 0, 65, 1})                              // sm widens by 1/64
	f.Add(byte(1), int16(599), int16(0), []byte{})                                               // last minute of the term
	f.Add(byte(1), int16(600), int16(0), []byte{})                                               // the term is over
	f.Add(byte(1), int16(60), int16(600), []byte{})                                              // a fast site clock
	f.Add(byte(1), int16(60), int16(-120), []byte{})                                             // a slow one
	f.Add(byte(0), int16(60), int16(0), []byte{opAmount, 0, 9, 0, opResign, 0, whoAuth, 0})      // a root past the site's capacity
	f.Add(byte(1), int16(60), int16(0), []byte{opFlipSig, 1, 0, 0, opFlipSig, 1, 0, 0})          // a flip undone: valid again
	f.Add(byte(3), int16(60), int16(0), []byte{opAmount, 2, 5, 0, opResign, 2, whoR1 | 0x80, 0}) // middle hop narrowed under its child

	f.Fuzz(func(t *testing.T, base byte, when, skew int16, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		origin := k.bases[int(base)%len(k.bases)]
		tk := cloneTicket(origin)
		k.mutate(tk, script)
		at := max(time.Duration(when)*time.Minute, 0)
		drift := time.Duration(skew) * time.Minute
		now := at + drift
		key := k.auth.Public()

		if got, want := tk.Verify(key, now), refVerify(tk, key, now); verdict(got) != verdict(want) {
			t.Fatalf("Verify = %v; reference = %v", got, want)
		}
		for _, warm := range []bool{false, true} {
			a, nm := k.newAuthority(at, drift)
			if warm {
				// A forged origin fails here, as it should; its honest
				// links are memoized all the same.
				_ = a.WarmSigs(origin, time.Hour)
				_ = a.WarmSigs(k.donor, time.Hour)
			}
			model := newRefAuthority(key, now)
			for try := 0; try < 2; try++ { // the second presentation is a replay
				lease, err := a.Redeem(tk)
				if want := model.redeem(tk); verdict(err) != verdict(want) {
					t.Fatalf("Redeem (warm=%v, presentation %d) = %v; reference = %v", warm, try, err, want)
				}
				if err == nil {
					checkGrant(t, tk, lease, nm)
				}
			}
		}

		// RedeemBatch is a Redeem loop: same leases, same refusals, same
		// capacity left, on twin sites.
		batch := []*sharp.Ticket{tk, nil, cloneTicket(k.bases[(int(base)+1)%len(k.bases)]), tk, cloneTicket(k.bases[0])}
		batched, nmB := k.newAuthority(at, drift)
		looped, nmL := k.newAuthority(at, drift)
		for i, got := range batched.RedeemBatch(batch) {
			var want sharp.RedeemResult
			if batch[i] == nil {
				want.Err = sharp.ErrBadChain
			} else {
				want.Lease, want.Err = looped.Redeem(batch[i])
			}
			if verdict(got.Err) != verdict(want.Err) || !reflect.DeepEqual(got.Lease, want.Lease) {
				t.Fatalf("batch[%d] = %+v, %v; loop = %+v, %v", i, got.Lease, got.Err, want.Lease, want.Err)
			}
			if got.Err == nil {
				checkGrant(t, batch[i], got.Lease, nmB)
			}
		}
		if b, l := nmB.Available(capability.CPU), nmL.Available(capability.CPU); b != l {
			t.Fatalf("batch left %v CPU free, the loop %v", b, l)
		}
	})
}

// TestFuzzKitShapes pins the corpus the fuzzer starts from, so a seed
// that stops meaning what its comment says is noticed: the honest chains
// redeem, and each adversary forgery is refused for its own reason.
func TestFuzzKitShapes(t *testing.T) {
	k := newTicketKit(t)
	want := []error{nil, nil, nil, nil,
		sharp.ErrAmountWidened, sharp.ErrBadSignature, sharp.ErrBadChain, sharp.ErrBadChain}
	for i, tk := range k.bases {
		a, _ := k.newAuthority(time.Hour, 0)
		if _, err := a.Redeem(cloneTicket(tk)); !errors.Is(err, want[i]) {
			t.Errorf("base %d (depth %d): Redeem = %v; want %v", i, len(tk.Chain), err, want[i])
		}
	}
	// The table seeds reach the amount rule, not an earlier check.
	for a, amount := range fuzzAmounts(4) { // base 1 is a 4-CPU root resold to sm
		tk := cloneTicket(k.bases[1])
		k.mutate(tk, []byte{opAmount, 1, byte(a), 0, opResign, 1, whoAgent | resignRelink, 0})
		wantErr := sharp.ErrAmountWidened
		if amount > 0 && amount <= 4 {
			wantErr = nil
		}
		if err := tk.Verify(k.auth.Public(), time.Hour); !errors.Is(err, wantErr) {
			t.Errorf("amount %v at depth 1: Verify = %v; want %v", amount, err, wantErr)
		}
	}
}
