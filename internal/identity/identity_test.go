package identity

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

const hour = time.Hour

func setup(t *testing.T) (*rand.Rand, *CA, *Principal, *Credential, *Verifier) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ca := NewCA("DOEGrids", 1000*hour, rng)
	user := NewPrincipal("/O=Grid/CN=alice", rng)
	cert := ca.IssueUser(user, 0, 500*hour)
	cred := UserCredential(user, cert)
	return rng, ca, user, cred, NewVerifier(ca)
}

func TestUserCertValidates(t *testing.T) {
	_, _, _, cred, v := setup(t)
	subj, err := v.Validate(cred, 10*hour)
	if err != nil {
		t.Fatal(err)
	}
	if subj != "/O=Grid/CN=alice" {
		t.Errorf("subject = %q", subj)
	}
}

func TestExpiry(t *testing.T) {
	_, _, _, cred, v := setup(t)
	if _, err := v.Validate(cred, 500*hour); !errors.Is(err, ErrExpired) {
		t.Errorf("at expiry: %v", err)
	}
	if _, err := v.Validate(cred, 499*hour); err != nil {
		t.Errorf("just before expiry: %v", err)
	}
}

func TestUntrustedCA(t *testing.T) {
	rng, _, _, cred, _ := setup(t)
	other := NewCA("Mallory CA", 1000*hour, rng)
	v := NewVerifier(other)
	if _, err := v.Validate(cred, 1*hour); !errors.Is(err, ErrUntrustedRoot) {
		t.Errorf("err = %v, want ErrUntrustedRoot", err)
	}
}

func TestProxyDelegationAndSubject(t *testing.T) {
	rng, _, _, cred, v := setup(t)
	proxy, err := cred.Delegate("alice/proxy", 1*hour, 12*hour, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	subj, err := v.Validate(proxy, 2*hour)
	if err != nil {
		t.Fatal(err)
	}
	// Authorization is keyed on the original user identity.
	if subj != "/O=Grid/CN=alice" {
		t.Errorf("proxy subject = %q, want original user", subj)
	}
}

func TestProxyExpiresIndependently(t *testing.T) {
	rng, _, _, cred, v := setup(t)
	proxy, _ := cred.Delegate("alice/proxy", 0, 12*hour, nil, rng)
	if _, err := v.Validate(proxy, 12*hour); !errors.Is(err, ErrExpired) {
		t.Errorf("expired proxy: %v", err)
	}
	// The user credential still works.
	if _, err := v.Validate(cred, 12*hour); err != nil {
		t.Errorf("user cred after proxy expiry: %v", err)
	}
}

func TestProxyChainDepth(t *testing.T) {
	rng, _, _, cred, v := setup(t)
	cur := cred
	var err error
	for i := 0; i < MaxProxyDepth-1; i++ {
		cur, err = cur.Delegate("p", 0, 400*hour, nil, rng)
		if err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
	}
	if _, err := v.Validate(cur, hour); err != nil {
		t.Fatalf("max-depth chain invalid: %v", err)
	}
	if _, err := cur.Delegate("p", 0, hour, nil, rng); !errors.Is(err, ErrProxyFromProxy) {
		t.Errorf("over-depth: %v", err)
	}
}

func TestRestrictedRights(t *testing.T) {
	rng, _, _, cred, _ := setup(t)
	p1, err := cred.Delegate("p1", 0, 10*hour, []string{"submit", "query"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.HasRight("submit") || p1.HasRight("transfer") {
		t.Errorf("rights = %v", p1.EffectiveRights())
	}
	// Narrowing is allowed.
	p2, err := p1.Delegate("p2", 0, 5*hour, []string{"query"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p2.HasRight("submit") || !p2.HasRight("query") {
		t.Errorf("narrowed rights = %v", p2.EffectiveRights())
	}
	// Widening is rejected.
	if _, err := p1.Delegate("p3", 0, hour, []string{"transfer"}, rng); !errors.Is(err, ErrRightsEscalate) {
		t.Errorf("escalation: %v", err)
	}
}

func TestUnrestrictedProxyInheritsAll(t *testing.T) {
	rng, _, _, cred, _ := setup(t)
	p, _ := cred.Delegate("p", 0, hour, nil, rng)
	if p.EffectiveRights() != nil {
		t.Errorf("unrestricted proxy rights = %v, want nil", p.EffectiveRights())
	}
	if !p.HasRight("anything") {
		t.Error("unrestricted proxy denied a right")
	}
}

func TestEmptyRightsGrantNothing(t *testing.T) {
	rng, _, _, cred, _ := setup(t)
	p, _ := cred.Delegate("p", 0, hour, []string{}, rng)
	if p.HasRight("submit") {
		t.Error("empty rights set granted a right")
	}
}

func TestTamperedCertRejected(t *testing.T) {
	_, _, _, cred, v := setup(t)
	evil := *cred.Chain[0]
	evil.Subject = "/O=Grid/CN=mallory"
	forged := &Credential{Holder: cred.Holder, Chain: []*Certificate{&evil}}
	if _, err := v.Validate(forged, hour); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered cert: %v", err)
	}
}

func TestStolenProxyWithoutKeyRejected(t *testing.T) {
	rng, _, _, cred, v := setup(t)
	proxy, _ := cred.Delegate("p", 0, 10*hour, nil, rng)
	// The thief has the chain but not the private key.
	thief := NewPrincipal("thief", rng)
	stolen := &Credential{Holder: thief, Chain: proxy.Chain}
	if _, err := v.Validate(stolen, hour); !errors.Is(err, ErrBadSignature) {
		t.Errorf("stolen chain without key: %v", err)
	}
}

func TestStolenProxyWithKeyWorksUntilExpiry(t *testing.T) {
	// "Proxy certificates ... stored with unencrypted private keys" — a
	// full compromise (chain + key) is usable exactly until NotAfter.
	rng, _, _, cred, v := setup(t)
	proxy, _ := cred.Delegate("p", 0, 10*hour, nil, rng)
	stolen := &Credential{Holder: proxy.Holder, Chain: proxy.Chain}
	if _, err := v.Validate(stolen, 9*hour); err != nil {
		t.Errorf("compromised proxy before expiry: %v", err)
	}
	if _, err := v.Validate(stolen, 10*hour); !errors.Is(err, ErrExpired) {
		t.Errorf("compromised proxy after expiry: %v", err)
	}
}

func TestRevocation(t *testing.T) {
	rng, _, _, cred, v := setup(t)
	proxy, _ := cred.Delegate("p", 0, 10*hour, nil, rng)
	v.Revoke(proxy.Chain[0])
	if _, err := v.Validate(proxy, hour); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked proxy: %v", err)
	}
	if _, err := v.Validate(cred, hour); err != nil {
		t.Errorf("user cred after proxy revocation: %v", err)
	}
}

func TestChainContinuityEnforced(t *testing.T) {
	rng, ca, _, cred, v := setup(t)
	// Bob delegates a proxy; splice Bob's proxy onto Alice's user cert.
	bob := NewPrincipal("/O=Grid/CN=bob", rng)
	bobCred := UserCredential(bob, ca.IssueUser(bob, 0, 500*hour))
	bobProxy, _ := bobCred.Delegate("bob/proxy", 0, 10*hour, nil, rng)
	spliced := &Credential{
		Holder: bobProxy.Holder,
		Chain:  []*Certificate{bobProxy.Chain[0], cred.Chain[0]},
	}
	if _, err := v.Validate(spliced, hour); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("spliced chain: %v", err)
	}
}

func TestNonProxyIntermediateRejected(t *testing.T) {
	rng, ca, _, _, v := setup(t)
	// A user cert in an intermediate position must be rejected.
	u1 := NewPrincipal("u1", rng)
	c1 := ca.IssueUser(u1, 0, 500*hour)
	u2 := NewPrincipal("u2", rng)
	c2 := ca.IssueUser(u2, 0, 500*hour)
	// Forge: chain [c2, c1] with holder u2 — c2 is not a proxy.
	bad := &Credential{Holder: u2, Chain: []*Certificate{c2, c1}}
	if _, err := v.Validate(bad, hour); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("non-proxy intermediate: %v", err)
	}
}

func TestProxyAsChainRootRejected(t *testing.T) {
	rng, _, _, cred, v := setup(t)
	proxy, _ := cred.Delegate("p", 0, 10*hour, nil, rng)
	// Drop the user cert: chain of just the proxy.
	naked := &Credential{Holder: proxy.Holder, Chain: proxy.Chain[:1]}
	if _, err := v.Validate(naked, hour); err == nil {
		t.Error("proxy-only chain accepted")
	}
}

func TestEmptyChain(t *testing.T) {
	_, _, _, _, v := setup(t)
	if _, err := v.Validate(&Credential{}, 0); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("empty: %v", err)
	}
	if _, err := v.Validate(nil, 0); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("nil: %v", err)
	}
}

func TestFingerprintStable(t *testing.T) {
	_, _, _, cred, _ := setup(t)
	if cred.Chain[0].Fingerprint() != cred.Chain[0].Fingerprint() {
		t.Error("fingerprint unstable")
	}
	other := *cred.Chain[0]
	other.Serial++
	if other.Fingerprint() == cred.Chain[0].Fingerprint() {
		t.Error("distinct certs share fingerprint")
	}
}

// Unit property beyond TestDeterminism: a principal's ed25519 key is a function of its rng stream alone.
func TestDeterministicKeys(t *testing.T) {
	a := NewPrincipal("x", rand.New(rand.NewSource(7)))
	b := NewPrincipal("x", rand.New(rand.NewSource(7)))
	if !a.Public().Equal(b.Public()) {
		t.Error("same-seed principals differ")
	}
}

// Property: for any split of rights into granted/rest, a proxy restricted
// to granted has exactly those rights and can never regain a dropped one
// through further delegation.
func TestRightsMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ca := NewCA("ca", 1000*hour, rng)
	user := NewPrincipal("u", rng)
	cred := UserCredential(user, ca.IssueUser(user, 0, 999*hour))
	all := []string{"a", "b", "c", "d", "e"}
	f := func(mask uint8, mask2 uint8) bool {
		var granted []string
		for i, r := range all {
			if mask&(1<<i) != 0 {
				granted = append(granted, r)
			}
		}
		if granted == nil {
			granted = []string{}
		}
		p1, err := cred.Delegate("p1", 0, hour, granted, rng)
		if err != nil {
			return false
		}
		// p1 has exactly `granted`.
		for i, r := range all {
			want := mask&(1<<i) != 0
			if p1.HasRight(r) != want {
				return false
			}
		}
		// Any further delegation can only keep a subset.
		var sub []string
		for i, r := range all {
			if mask2&(1<<i) != 0 && mask&(1<<i) != 0 {
				sub = append(sub, r)
			}
		}
		if sub == nil {
			sub = []string{}
		}
		p2, err := p1.Delegate("p2", 0, hour, sub, rng)
		if err != nil {
			return false
		}
		for i, r := range all {
			if p2.HasRight(r) && (mask&(1<<i) == 0 || mask2&(1<<i) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVerifySignatureDirect(t *testing.T) {
	_, _, _, cred, _ := setup(t)
	if !cred.Chain[0].VerifySignature() {
		t.Error("fresh cert fails self verification")
	}
}

func TestValidAtBoundaries(t *testing.T) {
	c := &Certificate{NotBefore: 5 * hour, NotAfter: 10 * hour}
	cases := []struct {
		t    time.Duration
		want bool
	}{{4 * hour, false}, {5 * hour, true}, {9 * hour, true}, {10 * hour, false}}
	for _, tc := range cases {
		if got := c.ValidAt(tc.t); got != tc.want {
			t.Errorf("ValidAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}
