package identity

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// refTBS is the certificate encoder as it stood before tbs sized its
// slice: a bytes.Buffer grown from empty and a sorted copy of Rights on
// every call. It is the reference the encoding is held to, byte for byte.
func refTBS(c *Certificate) []byte {
	var buf bytes.Buffer
	writeStr := func(s string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		buf.Write(n[:])
		buf.WriteString(s)
	}
	writeStr(c.Subject)
	buf.Write(c.SubjectKey)
	writeStr(c.Issuer)
	buf.Write(c.IssuerKey)
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], uint64(c.NotBefore))
	buf.Write(t[:])
	binary.BigEndian.PutUint64(t[:], uint64(c.NotAfter))
	buf.Write(t[:])
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
	buf.WriteByte(flags)
	rights := append([]string(nil), c.Rights...)
	sort.Strings(rights)
	for _, r := range rights {
		writeStr(r)
	}
	binary.BigEndian.PutUint64(t[:], c.Serial)
	buf.Write(t[:])
	return buf.Bytes()
}

// randomCertificate draws every field tbs encodes, Rights nil, empty,
// sorted, unsorted or with duplicates, and keys of any length.
func randomCertificate(rng *rand.Rand) *Certificate {
	str := func() string {
		return strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(12))
	}
	key := func() []byte {
		k := make([]byte, []int{0, 31, 32, 32, 33}[rng.Intn(5)])
		rng.Read(k)
		return k
	}
	c := &Certificate{
		Subject: str(), SubjectKey: key(), Issuer: str(), IssuerKey: key(),
		NotBefore: time.Duration(rng.Int63n(1<<40) - 1<<39), NotAfter: time.Duration(rng.Int63()),
		IsCA: rng.Intn(2) == 0, IsProxy: rng.Intn(2) == 0, Serial: rng.Uint64(),
	}
	switch rng.Intn(4) {
	case 0: // nil: inherit every right
	case 1:
		c.Rights = []string{}
	default:
		for i := rng.Intn(5); i >= 0; i-- {
			c.Rights = append(c.Rights, []string{"submit", "read", "stage", "", "submit", "cancel"}[rng.Intn(6)])
		}
	}
	return c
}

// tbs writes the reference's bytes into a slice of exactly their length
// and leaves the certificate's Rights as they were, sorted or not.
func TestCertificateEncodingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 2000; i++ {
		c := randomCertificate(rng)
		rights := slices.Clone(c.Rights)
		got, want := c.tbs(), refTBS(c)
		if !bytes.Equal(got, want) {
			t.Fatalf("cert %d %+v:\ntbs       %x\nreference %x", i, c, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("cert %d: tbs slice has len %d, cap %d: want the exact size", i, len(got), cap(got))
		}
		if (c.Rights == nil) != (rights == nil) || !slices.Equal(c.Rights, rights) {
			t.Fatalf("cert %d: tbs rewrote Rights %q to %q", i, rights, c.Rights)
		}
	}
}

// A certificate whose Rights are already sorted (nil, one right, or a
// sorted list) encodes in one allocation; unsorted Rights add their
// sorted copy.
func TestCertificateEncodingAllocs(t *testing.T) {
	c := &Certificate{Subject: "alice/proxy", Issuer: "alice", SubjectKey: make([]byte, 32), IssuerKey: make([]byte, 32),
		IsProxy: true, Rights: []string{"read", "submit"}}
	if n := testing.AllocsPerRun(100, func() { _ = c.tbs() }); n != 1 {
		t.Errorf("tbs of sorted rights allocates %.1f objects, want 1", n)
	}
	c.Rights = []string{"submit", "read"}
	if n := testing.AllocsPerRun(100, func() { _ = c.tbs() }); n != 2 {
		t.Errorf("tbs of unsorted rights allocates %.1f objects, want 2", n)
	}
}
