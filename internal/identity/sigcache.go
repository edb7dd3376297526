package identity

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
)

// A bounded memo of verified signatures.
//
// ed25519.Verify dominates every SHARP redeem at scale: a delegation
// chain of depth d costs d verifications, and n tickets sold from one
// stocked ticket repeat the same d-1 prefix signatures n times. The
// redundancy is pure: signature validity is a deterministic function of
// (public key, message, signature), so a triple verified once never
// needs verifying again. SigCache memoizes that function, so 64 depth-4
// tickets over one prefix cost 67 verifications instead of 256. GSI has
// the same shape (one proxy chain admits job after job at a gatekeeper),
// so Verifier.Validate resolves its links through a SigCache too.
//
// Security argument (the PR 9 forgery kit stays defeated): only
// *successful* verifications enter the cache, keyed by a SHA-256 digest
// over the exact (key, message, signature) triple. A tampered claim
// changes the message, a swapped issuer changes the key, a re-signed
// claim changes the signature — each yields a fresh digest, misses the
// cache, and runs the real ed25519.Verify, which fails exactly as
// before. Caching can therefore never convert an invalid triple into a
// valid one; it only skips re-proving triples already proven.

// sigDigest keys the memo: a SHA-256 over the length-framed triple, so
// no concatenation ambiguity exists between key, message, and signature.
func sigDigest(pub ed25519.PublicKey, msg, sig []byte) [32]byte {
	h := sha256.New()
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(pub)))
	h.Write(n[:])
	h.Write(pub)
	binary.BigEndian.PutUint32(n[:], uint32(len(msg)))
	h.Write(n[:])
	h.Write(msg)
	binary.BigEndian.PutUint32(n[:], uint32(len(sig)))
	h.Write(n[:])
	h.Write(sig)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// SigCache is a bounded memo of signatures that have already verified.
// Eviction is deterministic: when the cache reaches capacity the whole
// generation is cleared, so cache *contents* never depend on map
// iteration order and same-seed runs stay byte-identical.
type SigCache struct {
	capN    int
	entries map[[32]byte]struct{}

	// Hits/Misses count lookups; Evictions counts whole-generation
	// clears. Plain ints so the snapshot walker rewinds them.
	Hits, Misses, Evictions int
}

// DefaultSigCacheCap bounds a cache built with NewSigCache(0). At 32
// bytes per digest this is ~2 MiB of memo for 64k distinct signatures.
const DefaultSigCacheCap = 1 << 16

// NewSigCache returns a memo bounded to capN verified triples
// (capN <= 0 selects DefaultSigCacheCap).
func NewSigCache(capN int) *SigCache {
	if capN <= 0 {
		capN = DefaultSigCacheCap
	}
	return &SigCache{capN: capN, entries: make(map[[32]byte]struct{})}
}

// Len reports how many verified triples are memoized.
func (c *SigCache) Len() int { return len(c.entries) }

// Verify is the memoized form of ed25519.Verify: a cache hit skips the
// scalar math, a miss runs it and memoizes success, clearing the
// generation first when at capacity. A nil cache verifies directly. A
// wrong-length key fails: a link carries whatever key its presenter
// wrote, and ed25519.Verify panics on one.
func (c *SigCache) Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	if c == nil {
		return ed25519.Verify(pub, msg, sig)
	}
	d := sigDigest(pub, msg, sig)
	if _, ok := c.entries[d]; ok {
		c.Hits++
		return true
	}
	c.Misses++
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	if len(c.entries) >= c.capN {
		for k := range c.entries {
			delete(c.entries, k)
		}
		c.Evictions++
	}
	c.entries[d] = struct{}{}
	return true
}
