package identity

import (
	"math/rand"
	"testing"
)

func TestSigCacheMemoizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPrincipal("p", rng)
	msg := []byte("hello")
	sig := p.Sign(msg)

	c := NewSigCache(16)
	if !c.Verify(p.Public(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if c.Len() != 1 || c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("after first verify: len=%d hits=%d misses=%d", c.Len(), c.Hits, c.Misses)
	}
	if !c.Verify(p.Public(), msg, sig) {
		t.Fatal("memoized signature rejected")
	}
	if c.Hits != 1 {
		t.Fatalf("second verify should hit, hits=%d", c.Hits)
	}
}

func TestSigCacheNeverCachesFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPrincipal("p", rng)
	other := NewPrincipal("other", rng)
	msg := []byte("msg")
	forged := other.Sign(msg) // valid for other, forged for p

	c := NewSigCache(16)
	for i := 0; i < 3; i++ {
		if c.Verify(p.Public(), msg, forged) {
			t.Fatal("forged signature accepted")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("failure was cached: len=%d", c.Len())
	}
	// Tampering with a cached-good message must miss the cache and fail.
	good := p.Sign(msg)
	if !c.Verify(p.Public(), msg, good) {
		t.Fatal("good signature rejected")
	}
	tampered := append([]byte(nil), msg...)
	tampered[0] ^= 1
	if c.Verify(p.Public(), tampered, good) {
		t.Fatal("tampered message accepted via cache")
	}
}

func TestSigCacheBoundedEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPrincipal("p", rng)
	c := NewSigCache(4)
	for i := 0; i < 10; i++ {
		msg := []byte{byte(i)}
		if !c.Verify(p.Public(), msg, p.Sign(msg)) {
			t.Fatalf("verify %d failed", i)
		}
		if c.Len() > 4 {
			t.Fatalf("cache exceeded cap: %d", c.Len())
		}
	}
	if c.Evictions == 0 {
		t.Fatal("expected at least one generation eviction")
	}
}
