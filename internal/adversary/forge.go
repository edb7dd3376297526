package adversary

import (
	"bytes"
	"encoding/binary"
	"math"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
)

// claimTBS re-implements sharp's to-be-signed claim encoding from the
// claim's exported fields — what a real attacker would do from the wire
// format. The adversary tests pin it against the original: if sharp's
// encoding drifted, WidenDelegation's validly-signed forgery would be
// rejected as ErrBadSignature instead of ErrAmountWidened and the
// typed-error assertions would fail.
func claimTBS(c *sharp.Claim) []byte {
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

// TamperAmount returns a copy of the ticket with its leaf amount scaled
// but the original signature kept. Verify must reject it as
// ErrBadSignature: the signed bytes no longer match the claim.
func TamperAmount(t *sharp.Ticket, factor float64) *sharp.Ticket {
	chain := append([]sharp.Claim(nil), t.Chain...)
	chain[len(chain)-1].Amount *= factor
	return &sharp.Ticket{Chain: chain}
}

// SelfIssuedRoot forges a root claim "issued" by the attacker's own
// key. Redeem must reject it as ErrBadChain: the root is not signed by
// the pinned authority key, however internally consistent the claim is.
func SelfIssuedRoot(attacker *identity.Principal, site string, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration, serial uint64) *sharp.Ticket {
	c := sharp.Claim{
		Site:      site,
		Type:      typ,
		Amount:    amount,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		Issuer:    attacker.Name,
		IssuerKey: attacker.Public(),
		Holder:    attacker.Name,
		HolderKey: attacker.Public(),
		Serial:    serial,
	}
	c.Sig = attacker.Sign(claimTBS(&c))
	return &sharp.Ticket{Chain: []sharp.Claim{c}}
}

// SpliceChains grafts the donor ticket's leaf onto the base ticket's
// chain — the delegation-splicing attack. Verify must reject it as
// ErrBadChain: either the leaf's issuer is not the base leaf's holder,
// or the parent hash does not match.
func SpliceChains(base, donor *sharp.Ticket) *sharp.Ticket {
	chain := append([]sharp.Claim(nil), base.Chain...)
	chain = append(chain, *donor.Leaf())
	return &sharp.Ticket{Chain: chain}
}

// WidenDelegation appends a validly signed child claim whose amount
// exceeds its parent's — the attacker owns the leaf, so the signature
// checks out and only the amount-narrowing rule can reject it. Verify
// must fail with ErrAmountWidened. The holder principal must match the
// ticket's leaf holder.
func WidenDelegation(t *sharp.Ticket, holder *identity.Principal, factor float64, serial uint64) *sharp.Ticket {
	leaf := t.Leaf()
	c := sharp.Claim{
		Site:       leaf.Site,
		Type:       leaf.Type,
		Amount:     leaf.Amount * factor,
		NotBefore:  leaf.NotBefore,
		NotAfter:   leaf.NotAfter,
		Issuer:     leaf.Holder,
		IssuerKey:  holder.Public(),
		Holder:     holder.Name,
		HolderKey:  holder.Public(),
		Serial:     serial,
		ParentHash: leaf.Hash(),
	}
	c.Sig = holder.Sign(claimTBS(&c))
	chain := append(append([]sharp.Claim(nil), t.Chain...), c)
	return &sharp.Ticket{Chain: chain}
}
