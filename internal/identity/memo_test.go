package identity

import (
	"errors"
	"testing"
	"time"
)

// The signature memo inside Verifier changes what a validation costs,
// never what it answers. These tests pin both halves: verdicts against the
// uncached reference walk (ref_test.go), cost from the memo's own counters.

// chainCase is one credential presented at one instant, with the typed
// error the gatekeeper must answer (nil: admitted). prep, when set, runs
// against the verifier first (revocations, a warming call).
type chainCase struct {
	name string
	cred *Credential
	now  time.Duration
	prep func(t *testing.T, v *Verifier)
	want error
}

// edit clones cr and rewrites link i of the copy.
func edit(cr *Credential, i int, f func(c *Certificate)) *Credential {
	out := clone(cr)
	f(out.Chain[i])
	return out
}

func chainCases(fx *chainFixture) []chainCase {
	const live = 2 * hour
	resign := func(signer *Principal) func(*Certificate) {
		return func(c *Certificate) { c.Signature = signer.Sign(c.tbs()) }
	}
	// A chain one link past the depth limit, every link honestly signed.
	deep := fx.alice
	for len(deep.Chain) < MaxProxyDepth {
		var err error
		if deep, err = deep.Delegate("alice/deep", hour, hour, nil, fx.rng); err != nil {
			panic(err)
		}
	}
	extra := &Certificate{
		Subject: "alice/over", SubjectKey: fx.thief.pub, Issuer: "alice/deep", IssuerKey: deep.Holder.pub,
		NotBefore: hour, NotAfter: 2 * hour, IsProxy: true,
	}
	resign(deep.Holder)(extra)
	over := &Credential{Holder: fx.thief, Chain: append([]*Certificate{extra}, deep.Chain...)}

	malloryUser := NewPrincipal("/O=Grid/CN=eve", fx.rng)
	lookalike := NewCA("DOEGrids", 1000*hour, fx.rng) // trusted name, another key
	caProxy := edit(fx.alice, 0, func(c *Certificate) { c.IsProxy = true; resign(fx.ca.Principal)(c) })

	warmThenRevoke := func(cr *Credential, link int) func(*testing.T, *Verifier) {
		return func(t *testing.T, v *Verifier) {
			if _, err := v.Validate(cr, live); err != nil {
				t.Fatalf("chain must validate before it is revoked: %v", err)
			}
			v.Revoke(cr.Chain[link])
		}
	}

	return []chainCase{
		{name: "valid user", cred: fx.alice, now: live},
		{name: "valid depth 2", cred: fx.p1, now: live},
		{name: "valid depth 3", cred: fx.p2, now: live},
		{name: "valid at max depth", cred: deep, now: hour},
		{name: "last live instant", cred: fx.p1, now: proxyExpires - 1},
		{name: "expired leaf", cred: fx.p1, now: proxyExpires, want: ErrExpired},
		{name: "expired user link", cred: fx.alice, now: 500 * hour, want: ErrExpired},
		{name: "not yet valid", cred: fx.p2, now: hour - 1, want: ErrExpired},
		{name: "leaf revoked after a hit", cred: fx.p1, now: live, prep: warmThenRevoke(fx.p1, 0), want: ErrRevoked},
		{name: "user link revoked after a hit", cred: fx.p2, now: live, prep: warmThenRevoke(fx.p2, 2), want: ErrRevoked},
		{name: "sibling revoked", cred: fx.p1, now: live, prep: warmThenRevoke(fx.bobProxy, 0)},

		{name: "flipped signature byte, leaf", now: live, want: ErrBadSignature,
			cred: edit(fx.p1, 0, func(c *Certificate) { c.Signature[7] ^= 0x20 })},
		{name: "flipped signature byte, user link", now: live, want: ErrBadSignature,
			cred: edit(fx.p2, 2, func(c *Certificate) { c.Signature[63] ^= 1 })},
		{name: "truncated signature", now: live, want: ErrBadSignature,
			cred: edit(fx.p1, 0, func(c *Certificate) { c.Signature = c.Signature[:40] })},
		{name: "rewritten subject", now: live, want: ErrBadSignature,
			cred: edit(fx.alice, 0, func(c *Certificate) { c.Subject = "/O=Grid/CN=mallory" })},
		{name: "lifetime extended", now: proxyExpires + hour, want: ErrBadSignature,
			cred: edit(fx.p1, 0, func(c *Certificate) { c.NotAfter += 24 * hour })},
		{name: "rights widened", now: live, want: ErrBadSignature,
			cred: edit(fx.p2, 0, func(c *Certificate) { c.Rights = nil })},
		{name: "right added", now: live, want: ErrBadSignature,
			cred: edit(fx.p2, 0, func(c *Certificate) { c.Rights = append(c.Rights, "transfer") })},
		{name: "swapped issuer key", now: live, want: ErrBadSignature,
			cred: edit(fx.p1, 0, func(c *Certificate) { c.IssuerKey = fx.bob.Holder.pub })},
		{name: "short issuer key", now: live, want: ErrBadSignature,
			cred: edit(fx.p1, 0, func(c *Certificate) { c.IssuerKey = c.IssuerKey[:31] })},
		{name: "re-signed by another user", now: live, want: ErrBrokenChain,
			cred: edit(fx.p1, 0, func(c *Certificate) { c.IssuerKey = fx.bob.Holder.pub; resign(fx.bob.Holder)(c) })},

		{name: "spliced links from two users", now: live, want: ErrBrokenChain,
			cred: &Credential{Holder: fx.bobProxy.Holder, Chain: []*Certificate{fx.bobProxy.Chain[0], fx.alice.Chain[0]}}},
		{name: "user certificate as intermediate", now: live, want: ErrBrokenChain,
			cred: &Credential{Holder: fx.bob.Holder, Chain: []*Certificate{fx.bob.Chain[0], fx.alice.Chain[0]}}},
		{name: "proxy as root", now: live, want: ErrUntrustedRoot,
			cred: &Credential{Holder: fx.p1.Holder, Chain: fx.p1.Chain[:1]}},
		{name: "CA-signed proxy as root", cred: caProxy, now: live, want: ErrBrokenChain},
		{name: "untrusted CA", now: live, want: ErrUntrustedRoot,
			cred: UserCredential(malloryUser, fx.mallory.IssueUser(malloryUser, 0, 500*hour))},
		{name: "trusted CA name, another key", now: live, want: ErrUntrustedRoot,
			cred: UserCredential(malloryUser, lookalike.IssueUser(malloryUser, 0, 500*hour))},
		{name: "one link past the depth limit", cred: over, now: hour, want: ErrProxyFromProxy},

		{name: "holder key mismatch", now: live, want: ErrBadSignature,
			cred: &Credential{Holder: fx.thief, Chain: fx.p1.Chain}},
		{name: "no holder", now: live, want: ErrBadSignature,
			cred: &Credential{Chain: fx.p1.Chain}},
		{name: "nil leaf", now: live, want: ErrBrokenChain,
			cred: &Credential{Holder: fx.p1.Holder, Chain: []*Certificate{nil}}},
		{name: "nil middle link", now: live, want: ErrBrokenChain,
			cred: &Credential{Holder: fx.p2.Holder, Chain: []*Certificate{fx.p2.Chain[0], nil, fx.p2.Chain[2]}}},
		{name: "nil last link", now: live, want: ErrBrokenChain,
			cred: &Credential{Holder: fx.p1.Holder, Chain: []*Certificate{fx.p1.Chain[0], nil}}},
		{name: "empty chain", cred: &Credential{Holder: fx.thief}, now: live, want: ErrEmptyChain},
		{name: "nil credential", now: live, want: ErrEmptyChain},
	}
}

// TestValidateAgreesWithReference presents every case to a cold verifier
// and to one that has already admitted all the unmutated chains, twice
// each, and requires the uncached reference walk's verdict every time.
func TestValidateAgreesWithReference(t *testing.T) {
	fx := newChainFixture()
	for _, tc := range chainCases(fx) {
		for _, state := range []struct {
			name string
			v    *Verifier
		}{{"cold", NewVerifier(fx.ca)}, {"warm", fx.warm()}} {
			t.Run(tc.name+"/"+state.name, func(t *testing.T) {
				v := state.v
				if tc.prep != nil {
					tc.prep(t, v)
				}
				want := verdictOf(v.refValidate(tc.cred, tc.now))
				if want.class != tc.want {
					t.Fatalf("reference answers %v (%s), the case expects %v", want.class, want.text, tc.want)
				}
				if tc.want == nil && want.subject != "/O=Grid/CN=alice" {
					t.Fatalf("reference subject = %q", want.subject)
				}
				for pass := 1; pass <= 2; pass++ {
					if got := verdictOf(v.Validate(tc.cred, tc.now)); got != want {
						t.Errorf("pass %d: Validate = %+v, reference = %+v", pass, got, want)
					}
				}
			})
		}
	}
}

// TestValidateCostsEachSignatureOnce: N admissions of one depth-2 chain
// run ed25519.Verify twice, not 2N times.
func TestValidateCostsEachSignatureOnce(t *testing.T) {
	fx := newChainFixture()
	v := NewVerifier(fx.ca)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := v.Validate(fx.p1, 2*hour+time.Duration(i)*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if v.sigs.Misses != 2 || v.sigs.Hits != 2*(n-1) || len(v.sigs.entries) != 2 {
		t.Errorf("misses=%d hits=%d len=%d, want 2 %d 2", v.sigs.Misses, v.sigs.Hits, len(v.sigs.entries), 2*(n-1))
	}
	// A sibling proxy shares the user link: one more verification, not two.
	sib, err := fx.alice.Delegate("alice/sib", hour, hour, nil, fx.rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Validate(sib, 90*time.Minute); err != nil {
		t.Fatal(err)
	}
	if v.sigs.Misses != 3 {
		t.Errorf("sibling proxy: misses=%d, want 3", v.sigs.Misses)
	}
	// Two verifiers share nothing: another site proves the chain itself.
	other := NewVerifier(fx.ca)
	if _, err := other.Validate(fx.p1, 2*hour); err != nil {
		t.Fatal(err)
	}
	if other.sigs.Misses != 2 || other.sigs.Hits != 0 {
		t.Errorf("second verifier: misses=%d hits=%d, want 2 0", other.sigs.Misses, other.sigs.Hits)
	}
}

// TestForgedLinkIsNeverMemoized: a link that fails verification pays the
// real check every time it is presented and leaves nothing behind.
func TestForgedLinkIsNeverMemoized(t *testing.T) {
	fx := newChainFixture()
	v := fx.warm()
	forged := edit(fx.p1, 0, func(c *Certificate) { c.NotAfter += 24 * hour })
	held, misses := len(v.sigs.entries), v.sigs.Misses
	for i := 1; i <= 2; i++ {
		if _, err := v.Validate(forged, 2*hour); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("presentation %d: err = %v, want ErrBadSignature", i, err)
		}
		if v.sigs.Misses != misses+i || len(v.sigs.entries) != held {
			t.Errorf("presentation %d: misses=%d len=%d, want %d %d", i, v.sigs.Misses, len(v.sigs.entries), misses+i, held)
		}
	}
}

// TestVerifierMemoIsBounded is E4's shape, one fresh proxy per job, run
// past the memo's capacity: DefaultSigCacheCap + 1000 distinct link
// signatures presented to one verifier. The first cap − 500 entries are
// filler digests (an entry is 32 bytes whatever proved it; 65,000 real
// keygen+sign+verify rounds are 15 s of ed25519, two minutes under
// -race), the last 1,500 are real proxies through Validate.
func TestVerifierMemoIsBounded(t *testing.T) {
	fx := newChainFixture()
	v := NewVerifier(fx.ca)
	for i := 0; i < DefaultSigCacheCap-500; i++ {
		v.sigs.entries[[32]byte{1, byte(i), byte(i >> 8), byte(i >> 16)}] = struct{}{}
	}
	evictedAt := -1
	for job := 0; job < 1500; job++ {
		proxy, err := fx.alice.Delegate("alice/job", hour, hour, nil, fx.rng)
		if err != nil {
			t.Fatal(err)
		}
		before := len(v.sigs.entries)
		if _, err := v.Validate(proxy, 90*time.Minute); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if len(v.sigs.entries) > DefaultSigCacheCap {
			t.Fatalf("job %d: memo holds %d entries, cap %d", job, len(v.sigs.entries), DefaultSigCacheCap)
		}
		if len(v.sigs.entries) < before {
			if evictedAt >= 0 {
				t.Fatalf("second eviction at job %d (first at %d)", job, evictedAt)
			}
			evictedAt = job
			// A whole generation went, the user link with it: what is
			// left is this job's proxy link and the user link re-proven.
			if before != DefaultSigCacheCap || len(v.sigs.entries) != 2 {
				t.Errorf("eviction at job %d: %d → %d entries, want %d → 2", job, before, len(v.sigs.entries), DefaultSigCacheCap)
			}
		}
	}
	// Job 0 memoizes the user link and its own; each later job adds one.
	if evictedAt != 499 || v.sigs.Evictions != 1 {
		t.Errorf("evicted at job %d, %d evictions; want job 499, 1 eviction", evictedAt, v.sigs.Evictions)
	}
	// 1,500 proxy links, the user link once before the eviction and once after.
	if v.sigs.Misses != 1502 {
		t.Errorf("misses = %d, want 1502", v.sigs.Misses)
	}
}
