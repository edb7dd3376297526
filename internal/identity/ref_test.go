package identity

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// The uncached chain walk, kept only here as the oracle the memoized
// Verifier.Validate is compared against (memo_test.go, fuzz_test.go). It is
// the body Validate had before the site's signature memo existed: every
// link pays its own ed25519.Verify and encodes tbs twice.

// VerifySignature checks the certificate's signature against its embedded
// issuer key, with no memo. A key of the wrong length fails (ed25519.Verify
// would panic on one).
func (c *Certificate) VerifySignature() bool {
	return len(c.IssuerKey) == ed25519.PublicKeySize && ed25519.Verify(c.IssuerKey, c.tbs(), c.Signature)
}

// refValidate reads v's roots and revocation list and nothing else of v.
func (v *Verifier) refValidate(cr *Credential, now time.Duration) (string, error) {
	if cr == nil || len(cr.Chain) == 0 {
		return "", ErrEmptyChain
	}
	if len(cr.Chain) > MaxProxyDepth {
		return "", ErrProxyFromProxy
	}
	for _, c := range cr.Chain {
		if c == nil {
			return "", fmt.Errorf("%w: nil link", ErrBrokenChain)
		}
	}
	if cr.Holder == nil || !cr.Holder.pub.Equal(cr.Chain[0].SubjectKey) {
		return "", fmt.Errorf("%w: holder key does not match leaf", ErrBadSignature)
	}
	for i, c := range cr.Chain {
		if v.revoked[c.Fingerprint()] {
			return "", ErrRevoked
		}
		if !c.ValidAt(now) {
			return "", fmt.Errorf("%w: %q [%v,%v) at %v", ErrExpired, c.Subject, c.NotBefore, c.NotAfter, now)
		}
		if !c.VerifySignature() {
			return "", fmt.Errorf("%w: %q", ErrBadSignature, c.Subject)
		}
		if i < len(cr.Chain)-1 {
			if !c.IsProxy {
				return "", fmt.Errorf("%w: intermediate %q is not a proxy", ErrBrokenChain, c.Subject)
			}
			next := cr.Chain[i+1]
			if c.Issuer != next.Subject || !bytes.Equal(c.IssuerKey, next.SubjectKey) {
				return "", fmt.Errorf("%w: %q not issued by %q", ErrBrokenChain, c.Subject, next.Subject)
			}
			continue
		}
		rootKey, ok := v.roots[c.Issuer]
		if !ok {
			return "", fmt.Errorf("%w: issuer %q", ErrUntrustedRoot, c.Issuer)
		}
		if !rootKey.Equal(ed25519.PublicKey(c.IssuerKey)) {
			return "", fmt.Errorf("%w: issuer key mismatch for %q", ErrUntrustedRoot, c.Issuer)
		}
		if c.IsProxy {
			return "", fmt.Errorf("%w: chain root is a proxy", ErrBrokenChain)
		}
	}
	return cr.Subject(), nil
}

// chainErrors is every typed error chain validation can return.
var chainErrors = []error{
	ErrExpired, ErrBadSignature, ErrUntrustedRoot, ErrBrokenChain,
	ErrProxyFromProxy, ErrRevoked, ErrRightsEscalate, ErrEmptyChain,
}

// verdict is what a caller can observe of one validation.
type verdict struct {
	subject string
	class   error // the chainErrors member err wraps; nil on success
	text    string
}

func verdictOf(subject string, err error) verdict {
	v := verdict{subject: subject}
	if err == nil {
		return v
	}
	v.text = err.Error()
	for _, e := range chainErrors {
		if errors.Is(err, e) {
			v.class = e
			return v
		}
	}
	v.class = err // untyped: equal only to itself
	return v
}

// chainFixture is the cast the differential and fuzz tests mutate: alice's
// user credential with two proxies under it, bob's with one, a thief with
// no certificate, and a CA the verifier does not trust. The credentials
// are read-only; a test mutates what clone returns.
type chainFixture struct {
	rng         *rand.Rand
	ca, mallory *CA
	alice, bob  *Credential
	p1, p2      *Credential // alice → p1 → p2
	bobProxy    *Credential
	thief       *Principal
}

// Every fixture proxy is valid over [1 h, proxyExpires).
const proxyExpires = 12 * hour

func newChainFixture() *chainFixture {
	rng := rand.New(rand.NewSource(18))
	fx := &chainFixture{rng: rng}
	fx.ca = NewCA("DOEGrids", 1000*hour, rng)
	fx.mallory = NewCA("Mallory CA", 1000*hour, rng)
	user := func(name string) *Credential {
		p := NewPrincipal(name, rng)
		return UserCredential(p, fx.ca.IssueUser(p, 0, 500*hour))
	}
	must := func(c *Credential, err error) *Credential {
		if err != nil {
			panic(err)
		}
		return c
	}
	fx.alice, fx.bob = user("/O=Grid/CN=alice"), user("/O=Grid/CN=bob")
	fx.p1 = must(fx.alice.Delegate("alice/p1", hour, proxyExpires-hour, nil, rng))
	fx.p2 = must(fx.p1.Delegate("alice/p2", hour, proxyExpires-hour, []string{"submit", "query"}, rng))
	fx.bobProxy = must(fx.bob.Delegate("bob/p", hour, proxyExpires-hour, nil, rng))
	fx.thief = NewPrincipal("thief", rng)
	return fx
}

// valid lists the unmutated chains, the ones a warm verifier has seen.
func (fx *chainFixture) valid() []*Credential {
	return []*Credential{fx.alice, fx.bob, fx.p1, fx.p2, fx.bobProxy}
}

// warm returns a verifier that has already admitted every unmutated chain.
func (fx *chainFixture) warm() *Verifier {
	v := NewVerifier(fx.ca)
	for _, cr := range fx.valid() {
		if _, err := v.Validate(cr, 2*hour); err != nil {
			panic(err)
		}
	}
	return v
}

// clone deep-copies a credential's chain (the holder is shared: principals
// are immutable) so a test can rewrite any byte of it.
func clone(cr *Credential) *Credential {
	out := &Credential{Holder: cr.Holder, Chain: make([]*Certificate, len(cr.Chain))}
	for i, c := range cr.Chain {
		cp := *c
		cp.SubjectKey = append(ed25519.PublicKey(nil), c.SubjectKey...)
		cp.IssuerKey = append(ed25519.PublicKey(nil), c.IssuerKey...)
		cp.Signature = append([]byte(nil), c.Signature...)
		if c.Rights != nil {
			cp.Rights = append([]string{}, c.Rights...)
		}
		out.Chain[i] = &cp
	}
	return out
}
