package sharp

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
)

// refTBS is the claim encoder as it stood before tbs sized its slice:
// a bytes.Buffer grown from empty. It is the reference the encoding is
// held to, byte for byte.
func refTBS(c *Claim) []byte {
	var buf bytes.Buffer
	w := func(s string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		buf.Write(n[:])
		buf.WriteString(s)
	}
	w(c.Site)
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], uint64(c.Type))
	buf.Write(t[:])
	binary.BigEndian.PutUint64(t[:], math.Float64bits(c.Amount))
	buf.Write(t[:])
	binary.BigEndian.PutUint64(t[:], uint64(c.NotBefore))
	buf.Write(t[:])
	binary.BigEndian.PutUint64(t[:], uint64(c.NotAfter))
	buf.Write(t[:])
	w(c.Issuer)
	buf.Write(c.IssuerKey)
	w(c.Holder)
	buf.Write(c.HolderKey)
	binary.BigEndian.PutUint64(t[:], c.Serial)
	buf.Write(t[:])
	buf.Write(c.ParentHash[:])
	return buf.Bytes()
}

// e14Claim is a leaf claim of E14's shape: a site's agent selling one
// CPU to its service manager under a root the authority issued.
func e14Claim() *Claim {
	rng := rand.New(rand.NewSource(9))
	agent := identity.NewPrincipal("agent@s0042", rng)
	sm := identity.NewPrincipal("sm@s0042", rng)
	c := &Claim{
		Site: "s0042", Type: capability.CPU, Amount: 1, NotBefore: 20 * time.Second, NotAfter: 24 * time.Hour,
		Issuer: agent.Name, IssuerKey: agent.Public(), Holder: sm.Name, HolderKey: sm.Public(),
		Serial: 17, ParentHash: sha256.Sum256([]byte("root")),
	}
	c.Sig = agent.Sign(c.tbs())
	return c
}

// FuzzClaimEncodingMatchesReference: for any field values — empty, long
// or odd-length names, keys of any length, amounts that are not finite —
// tbs writes exactly the reference's bytes into a slice of exactly that
// length, and Hash digests the reference's bytes followed by the
// signature, including when the names outgrow Hash's stack buffer.
func FuzzClaimEncodingMatchesReference(f *testing.F) {
	c := e14Claim()
	f.Add(c.Site, c.Issuer, c.Holder, []byte(c.IssuerKey), []byte(c.HolderKey), c.Sig,
		int(c.Type), c.Amount, int64(c.NotBefore), int64(c.NotAfter), c.Serial, c.ParentHash[:])
	f.Add("", "", "", []byte{}, []byte{}, []byte{}, 0, 0.0, int64(0), int64(0), uint64(0), []byte{})
	f.Add("A", "authority@A", strings.Repeat("reseller/", 40), []byte{1, 2, 3}, []byte(nil), []byte{0xff},
		-1, math.NaN(), int64(-time.Hour), int64(math.MaxInt64), uint64(math.MaxUint64), bytes.Repeat([]byte{7}, 40))
	f.Add("é", "\x00", "holder", []byte(c.IssuerKey), []byte(c.HolderKey), c.Sig, 3, math.Inf(-1), int64(1), int64(2), uint64(3), []byte{9})
	f.Fuzz(func(t *testing.T, site, issuer, holder string, ikey, hkey, sig []byte,
		typ int, amount float64, notBefore, notAfter int64, serial uint64, parent []byte) {
		c := &Claim{
			Site: site, Type: capability.ResourceType(typ), Amount: amount,
			NotBefore: time.Duration(notBefore), NotAfter: time.Duration(notAfter),
			Issuer: issuer, IssuerKey: ed25519.PublicKey(ikey), Holder: holder, HolderKey: ed25519.PublicKey(hkey),
			Serial: serial, Sig: sig,
		}
		copy(c.ParentHash[:], parent)
		want := refTBS(c)
		got := c.tbs()
		if !bytes.Equal(got, want) {
			t.Fatalf("tbs = %x\nreference %x", got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("tbs slice has len %d, cap %d: want the exact size", len(got), cap(got))
		}
		if h, w := c.Hash(), sha256.Sum256(append(want, sig...)); h != w {
			t.Fatalf("Hash = %x, reference %x", h, w)
		}
	})
}

// An E14 claim's Hash allocates nothing, and its tbs one slice: the
// encoding is written once, in place.
func TestClaimEncodingAllocs(t *testing.T) {
	c := e14Claim()
	if n := testing.AllocsPerRun(100, func() { _ = c.Hash() }); n != 0 {
		t.Errorf("Claim.Hash allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.tbs() }); n != 1 {
		t.Errorf("Claim.tbs allocates %.1f objects, want 1", n)
	}
}
