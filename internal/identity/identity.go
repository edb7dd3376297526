// Package identity implements the PKI machinery both systems' security
// layers build on: principals with ed25519 key pairs, X.509-style
// certificates signed by certificate authorities, and GSI proxy
// certificates [Welch et al. 2004] — short-lived certificates signed by a
// *user* (not a CA), optionally carrying restricted rights, whose chains
// validate back to a trusted CA.
//
// The paper's E4 experiment ("Choosing the lifetime of proxy certificates
// requires a compromise between allowing long-term jobs to continue to run
// as authenticated entities and the need to limit the damage in the event
// a proxy is compromised") is exercised directly against this package: the
// signatures are real, expiry is checked against the simulation clock, and
// a stolen proxy is usable exactly until NotAfter.
package identity

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Errors returned by chain validation.
var (
	ErrExpired        = errors.New("identity: certificate expired or not yet valid")
	ErrBadSignature   = errors.New("identity: signature verification failed")
	ErrUntrustedRoot  = errors.New("identity: chain does not terminate at a trusted CA")
	ErrBrokenChain    = errors.New("identity: chain issuer/subject mismatch")
	ErrProxyFromProxy = errors.New("identity: proxy chain exceeds depth limit")
	ErrRevoked        = errors.New("identity: certificate revoked")
	ErrRightsEscalate = errors.New("identity: proxy rights exceed issuer rights")
	ErrEmptyChain     = errors.New("identity: empty chain")
)

// Principal is a named key pair: a user, a service, a site authority, or a
// CA. The private key never leaves the Principal value; signing goes
// through methods.
type Principal struct {
	Name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewPrincipal deterministically derives a principal from the rng, so
// simulations are reproducible.
func NewPrincipal(name string, rng *rand.Rand) *Principal {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Principal{Name: name, pub: priv.Public().(ed25519.PublicKey), priv: priv}
}

// Public returns the principal's public key.
func (p *Principal) Public() ed25519.PublicKey { return p.pub }

// Sign signs arbitrary bytes with the principal's key.
func (p *Principal) Sign(msg []byte) []byte { return ed25519.Sign(p.priv, msg) }

// Verify checks a signature allegedly made by this principal.
func (p *Principal) Verify(msg, sig []byte) bool { return ed25519.Verify(p.pub, msg, sig) }

// Certificate binds a subject name and public key to a validity interval
// and an optional rights set, signed by an issuer. IsProxy marks GSI proxy
// certificates, which are signed by the delegating *user* rather than a CA.
type Certificate struct {
	Subject    string
	SubjectKey ed25519.PublicKey
	Issuer     string
	IssuerKey  ed25519.PublicKey
	NotBefore  time.Duration // virtual time
	NotAfter   time.Duration
	IsCA       bool
	IsProxy    bool
	// Rights restricts what the holder may do. nil means "inherit all
	// rights of the issuer" (an unrestricted proxy); an empty non-nil
	// slice grants nothing.
	Rights    []string
	Signature []byte
	Serial    uint64
}

// tbs returns the canonical to-be-signed encoding of the certificate.
// A hand-rolled deterministic encoding avoids JSON map-order pitfalls.
// Rights are encoded sorted; they are copied to be sorted only when they
// are not already, and the encoding is written once into a slice of
// exactly its length.
func (c *Certificate) tbs() []byte {
	rights := c.Rights
	if !sort.StringsAreSorted(rights) {
		rights = append([]string(nil), rights...)
		sort.Strings(rights)
	}
	n := 4 + len(c.Subject) + len(c.SubjectKey) + 4 + len(c.Issuer) + len(c.IssuerKey) + 2*8 + 1 + 8
	for _, r := range rights {
		n += 4 + len(r)
	}
	str := func(b []byte, s string) []byte {
		return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
	}
	b := make([]byte, 0, n)
	b = str(b, c.Subject)
	b = append(b, c.SubjectKey...)
	b = str(b, c.Issuer)
	b = append(b, c.IssuerKey...)
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotBefore))
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotAfter))
	flags := byte(0)
	if c.IsCA {
		flags |= 1
	}
	if c.IsProxy {
		flags |= 2
	}
	if c.Rights != nil {
		flags |= 4
	}
	b = append(b, flags)
	for _, r := range rights {
		b = str(b, r)
	}
	return binary.BigEndian.AppendUint64(b, c.Serial)
}

// Fingerprint returns a stable 20-byte digest identifying the certificate.
func (c *Certificate) Fingerprint() [20]byte { return sha1.Sum(c.tbs()) }

// ValidAt reports whether the validity interval covers t.
func (c *Certificate) ValidAt(t time.Duration) bool {
	return t >= c.NotBefore && t < c.NotAfter
}

// CA is a certificate authority: a principal whose self-signed root
// certificate anchors trust.
type CA struct {
	*Principal
	Root   *Certificate
	serial uint64
}

// NewCA creates a CA with a self-signed root valid over [0, horizon).
func NewCA(name string, horizon time.Duration, rng *rand.Rand) *CA {
	p := NewPrincipal(name, rng)
	ca := &CA{Principal: p}
	root := &Certificate{
		Subject:    name,
		SubjectKey: p.pub,
		Issuer:     name,
		IssuerKey:  p.pub,
		NotBefore:  0,
		NotAfter:   horizon,
		IsCA:       true,
		Serial:     ca.nextSerial(),
	}
	root.Signature = p.Sign(root.tbs())
	ca.Root = root
	return ca
}

func (ca *CA) nextSerial() uint64 {
	ca.serial++
	return ca.serial
}

// IssueUser signs an end-entity certificate for the principal.
func (ca *CA) IssueUser(subject *Principal, notBefore, notAfter time.Duration) *Certificate {
	c := &Certificate{
		Subject:    subject.Name,
		SubjectKey: subject.pub,
		Issuer:     ca.Name,
		IssuerKey:  ca.pub,
		NotBefore:  notBefore,
		NotAfter:   notAfter,
		Serial:     ca.nextSerial(),
	}
	c.Signature = ca.Sign(c.tbs())
	return c
}

// Credential is a principal together with the certificate chain proving
// its identity: [end-entity-or-proxy, ..., user-cert]. The CA root is not
// included; verifiers hold roots out of band.
type Credential struct {
	Holder *Principal
	Chain  []*Certificate
}

// Subject returns the *original* identity at the end of the chain — for a
// proxy chain, the delegating user, which is what authorization decisions
// key on ("searches the certificate chain until the user certificate is
// found in order to do the authorization based on that identity token").
func (cr *Credential) Subject() string {
	if len(cr.Chain) == 0 {
		return ""
	}
	return cr.Chain[len(cr.Chain)-1].Subject
}

// EffectiveRights returns the intersection of all restricted-rights sets
// along the chain; nil means unrestricted.
func (cr *Credential) EffectiveRights() []string {
	var set map[string]bool
	for _, c := range cr.Chain {
		if c.Rights == nil {
			continue
		}
		if set == nil {
			set = make(map[string]bool, len(c.Rights))
			for _, r := range c.Rights {
				set[r] = true
			}
			continue
		}
		keep := make(map[string]bool)
		for _, r := range c.Rights {
			if set[r] {
				keep[r] = true
			}
		}
		set = keep
	}
	if set == nil {
		return nil
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// HasRight reports whether the credential permits the named right.
func (cr *Credential) HasRight(right string) bool {
	r := cr.EffectiveRights()
	if r == nil {
		return true
	}
	for _, x := range r {
		if x == right {
			return true
		}
	}
	return false
}

// UserCredential bundles a user certificate into a credential.
func UserCredential(holder *Principal, cert *Certificate) *Credential {
	return &Credential{Holder: holder, Chain: []*Certificate{cert}}
}

// MaxProxyDepth bounds delegation chains (user + proxies). GSI tooling of
// the era defaulted to similar small limits.
const MaxProxyDepth = 8

// Delegate creates a proxy credential: a fresh key pair whose certificate
// is signed by the current credential's holder, valid for lifetime from
// now, optionally restricted to rights (nil = inherit). This is GSI
// identity delegation: the proxy can act as the original subject.
func (cr *Credential) Delegate(name string, now, lifetime time.Duration, rights []string, rng *rand.Rand) (*Credential, error) {
	if len(cr.Chain) >= MaxProxyDepth {
		return nil, ErrProxyFromProxy
	}
	if rights != nil {
		// A proxy may only narrow rights, never widen them.
		for _, r := range rights {
			if !cr.HasRight(r) {
				return nil, fmt.Errorf("%w: %q", ErrRightsEscalate, r)
			}
		}
	}
	proxy := NewPrincipal(name, rng)
	c := &Certificate{
		Subject:    name,
		SubjectKey: proxy.pub,
		Issuer:     cr.Holder.Name,
		IssuerKey:  cr.Holder.pub,
		NotBefore:  now,
		NotAfter:   now + lifetime,
		IsProxy:    true,
		Rights:     rights,
	}
	c.Signature = cr.Holder.Sign(c.tbs())
	chain := append([]*Certificate{c}, cr.Chain...)
	return &Credential{Holder: proxy, Chain: chain}, nil
}

// Verifier validates chains against a set of trusted roots and a
// revocation list. It is one site's state: sigs memoizes the link
// signatures this site has already proven (see SigCache), so a proxy
// presented job after job pays its ed25519 math once.
type Verifier struct {
	roots   map[string]ed25519.PublicKey
	revoked map[[20]byte]bool
	sigs    *SigCache
}

// NewVerifier returns a verifier trusting the given CAs.
func NewVerifier(roots ...*CA) *Verifier {
	v := &Verifier{
		roots:   make(map[string]ed25519.PublicKey, len(roots)),
		revoked: make(map[[20]byte]bool),
		sigs:    NewSigCache(0),
	}
	for _, ca := range roots {
		v.roots[ca.Name] = ca.Public()
	}
	return v
}

// Revoke adds a certificate to the revocation list.
func (v *Verifier) Revoke(c *Certificate) { v.revoked[c.Fingerprint()] = true }

// Validate checks a credential chain at virtual time now: every link's
// signature, validity window, revocation status, issuer/subject
// continuity, proxy marking, and termination at a trusted root. On success
// it returns the authenticated original subject name. Every check runs on
// every call; only the signature math of an unchanged link is memoized.
func (v *Verifier) Validate(cr *Credential, now time.Duration) (subject string, err error) {
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
	// The holder must actually possess the leaf key (proof-of-possession
	// is modelled structurally: the Credential carries the Principal).
	if cr.Holder == nil || !cr.Holder.pub.Equal(cr.Chain[0].SubjectKey) {
		return "", fmt.Errorf("%w: holder key does not match leaf", ErrBadSignature)
	}
	for i, c := range cr.Chain {
		tbs := c.tbs()
		if v.revoked[sha1.Sum(tbs)] {
			return "", ErrRevoked
		}
		if !c.ValidAt(now) {
			return "", fmt.Errorf("%w: %q [%v,%v) at %v", ErrExpired, c.Subject, c.NotBefore, c.NotAfter, now)
		}
		if !v.sigs.Verify(c.IssuerKey, tbs, c.Signature) {
			return "", fmt.Errorf("%w: %q", ErrBadSignature, c.Subject)
		}
		last := i == len(cr.Chain)-1
		if !last {
			// Non-last links must be proxies issued by the next link's
			// subject.
			if !c.IsProxy {
				return "", fmt.Errorf("%w: intermediate %q is not a proxy", ErrBrokenChain, c.Subject)
			}
			next := cr.Chain[i+1]
			if c.Issuer != next.Subject || !bytes.Equal(c.IssuerKey, next.SubjectKey) {
				return "", fmt.Errorf("%w: %q not issued by %q", ErrBrokenChain, c.Subject, next.Subject)
			}
		} else {
			// The chain's last certificate must be CA-issued.
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
	}
	return cr.Subject(), nil
}
