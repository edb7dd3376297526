package identity

import (
	"testing"
	"time"
)

// mutate rewrites cr (a clone of a fixture chain) in place as the script
// says, four bytes per step: operation, link, argument, byte position. It
// returns the certificates the site is to revoke before cr is presented.
func (fx *chainFixture) mutate(cr *Credential, script []byte) (revoked []*Certificate) {
	for ; len(script) >= 4; script = script[4:] {
		op, l, arg, pos := script[0]%12, int(script[1]), script[2], int(script[3])
		if op < 10 { // the operations on one link
			if len(cr.Chain) == 0 {
				continue
			}
			l %= len(cr.Chain)
		}
		switch op {
		case 0: // flip a signature byte
			if c := cr.Chain[l]; c != nil && len(c.Signature) > 0 {
				c.Signature[pos%len(c.Signature)] ^= 1 << (arg % 8)
			}
		case 1: // rewrite a signed field
			if c := cr.Chain[l]; c != nil {
				fx.rewriteField(c, arg, pos)
			}
		case 2: // flip or drop a key byte
			if cr.Chain[l] == nil {
				break
			}
			key := &cr.Chain[l].IssuerKey
			if arg&1 == 1 {
				key = &cr.Chain[l].SubjectKey
			}
			if len(*key) == 0 {
				break
			}
			if arg&2 == 2 {
				*key = (*key)[:pos%len(*key)]
			} else {
				(*key)[pos%len(*key)] ^= 1 << ((arg >> 2) % 8)
			}
		case 3: // drop a link
			cr.Chain = append(cr.Chain[:l:l], cr.Chain[l+1:]...)
		case 4: // duplicate a link
			cr.Chain = append(cr.Chain[:l+1:l+1], cr.Chain[l:]...)
		case 5: // swap two links
			m := pos % len(cr.Chain)
			cr.Chain[l], cr.Chain[m] = cr.Chain[m], cr.Chain[l]
		case 6: // nil a link
			cr.Chain[l] = nil
		case 7: // splice in a link of bob's chain
			donor := clone(fx.bobProxy).Chain
			cr.Chain[l] = donor[pos%len(donor)]
		case 8: // the site revokes a link, as presented
			if c := cr.Chain[l]; c != nil {
				revoked = append(revoked, c)
			}
		case 9: // someone with a key re-issues the link as it now reads
			if c := cr.Chain[l]; c != nil {
				signer := []*Principal{fx.alice.Holder, fx.bob.Holder, fx.p1.Holder, fx.ca.Principal, fx.mallory.Principal}[int(arg)%5]
				c.Issuer, c.IssuerKey = signer.Name, signer.pub
				c.Signature = signer.Sign(c.tbs())
			}
		case 10: // another holder
			cr.Holder = []*Principal{fx.thief, nil, fx.bobProxy.Holder, fx.alice.Holder, fx.p1.Holder}[int(arg)%5]
		case 11: // grow the chain past the depth limit
			for arg > 128 && len(cr.Chain) > 0 && len(cr.Chain) <= MaxProxyDepth {
				cr.Chain = append(cr.Chain[:1:1], cr.Chain...)
			}
		}
	}
	return revoked
}

func (fx *chainFixture) rewriteField(c *Certificate, field byte, pos int) {
	switch field % 9 {
	case 0:
		c.Subject += "x"
	case 1:
		c.Issuer = c.Issuer[:pos%(len(c.Issuer)+1)]
	case 2:
		c.NotBefore -= time.Duration(pos) * time.Minute
	case 3:
		c.NotAfter += time.Duration(pos) * hour
	case 4:
		c.IsCA = !c.IsCA
	case 5:
		c.IsProxy = !c.IsProxy
	case 6:
		if c.Rights == nil {
			c.Rights = []string{}
		} else {
			c.Rights = nil
		}
	case 7:
		c.Rights = append(c.Rights, "transfer")
	case 8:
		c.Serial += uint64(pos) + 1
	}
}

// FuzzValidateAgreesWithReference: whatever an attacker does to a chain,
// the memoized walk does not panic and answers as the uncached reference
// does: on a verifier that has seen nothing, and on one that has already
// admitted every unmutated chain the mutant was cut from (the memo's worst
// case: a near-miss of something it holds). base picks the chain, at the
// instant fixed by when (minutes around the proxies' 1 h..12 h window).
func FuzzValidateAgreesWithReference(f *testing.F) {
	fx := newChainFixture()
	// The shapes of TestValidateAgreesWithReference, as scripts.
	f.Add(byte(2), int16(120), []byte{})                          // valid depth 2
	f.Add(byte(3), int16(120), []byte{})                          // valid depth 3
	f.Add(byte(2), int16(720), []byte{})                          // expired leaf
	f.Add(byte(3), int16(59), []byte{})                           // not yet valid
	f.Add(byte(2), int16(120), []byte{8, 0, 0, 0})                // revoked leaf
	f.Add(byte(3), int16(120), []byte{8, 2, 0, 0})                // revoked user link
	f.Add(byte(2), int16(120), []byte{0, 0, 5, 7})                // flipped signature byte
	f.Add(byte(0), int16(120), []byte{1, 0, 0, 0})                // rewritten subject
	f.Add(byte(2), int16(780), []byte{1, 0, 3, 24})               // lifetime extended
	f.Add(byte(3), int16(120), []byte{1, 0, 6, 0})                // rights widened
	f.Add(byte(2), int16(120), []byte{2, 0, 0, 3})                // flipped issuer-key byte
	f.Add(byte(2), int16(120), []byte{2, 0, 2, 31})               // short issuer key
	f.Add(byte(2), int16(120), []byte{9, 0, 1, 0})                // re-signed by bob
	f.Add(byte(2), int16(120), []byte{7, 0, 0, 0, 10, 0, 2, 0})   // bob's proxy spliced onto alice
	f.Add(byte(2), int16(120), []byte{3, 1, 0, 0})                // proxy as root
	f.Add(byte(0), int16(120), []byte{1, 0, 5, 0, 9, 0, 3, 0})    // CA-signed proxy as root
	f.Add(byte(0), int16(120), []byte{9, 0, 4, 0})                // issued by an untrusted CA
	f.Add(byte(3), int16(120), []byte{11, 0, 200, 0})             // past the depth limit
	f.Add(byte(2), int16(120), []byte{10, 0, 0, 0})               // holder key mismatch
	f.Add(byte(2), int16(120), []byte{10, 0, 1, 0})               // no holder
	f.Add(byte(2), int16(120), []byte{6, 0, 0, 0})                // nil leaf
	f.Add(byte(3), int16(120), []byte{6, 1, 0, 0})                // nil middle link
	f.Add(byte(3), int16(120), []byte{5, 0, 0, 2, 4, 1, 0, 0})    // swapped then duplicated
	f.Add(byte(1), int16(120), []byte{3, 0, 0, 0})                // empty chain
	f.Add(byte(2), int16(-5), []byte{1, 0, 2, 200, 1, 1, 2, 200}) // window moved before zero
	f.Add(byte(2), int16(120), []byte{0, 0, 5, 7, 0, 0, 5, 7})    // a flip undone: valid again

	valid, warm := fx.valid(), fx.warm()
	f.Fuzz(func(t *testing.T, base byte, when int16, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		now := time.Duration(when) * time.Minute
		cred := clone(valid[int(base)%len(valid)])
		revoked := fx.mutate(cred, script)

		cold := NewVerifier(fx.ca)
		// This run's warm verifier: the shared memo's entries, its own
		// revocation list.
		hot := NewVerifier(fx.ca)
		for d := range warm.sigs.entries {
			hot.sigs.entries[d] = struct{}{}
		}
		for _, c := range revoked {
			cold.Revoke(c)
			hot.Revoke(c)
		}

		want := verdictOf(cold.refValidate(cred, now))
		for pass := 1; pass <= 2; pass++ {
			if got := verdictOf(cold.Validate(cred, now)); got != want {
				t.Fatalf("cold verifier, pass %d: %+v, reference %+v", pass, got, want)
			}
			if got := verdictOf(hot.Validate(cred, now)); got != want {
				t.Fatalf("warm verifier, pass %d: %+v, reference %+v", pass, got, want)
			}
		}
	})
}
