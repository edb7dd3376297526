// Package adversary implements pluggable byzantine behaviours wrapped
// around the honest SHARP components, for the robustness experiments:
//
//   - OversellBroker: a broker.Seller that announces inflated
//     inventory, delegates over-generous validity windows, and
//     periodically re-sells a previously sold ticket verbatim — the
//     "same inventory to multiple service managers" attack. Its
//     tickets are cryptographically valid (it really holds the stock
//     roots it delegates from), so the fraud is only detectable at
//     redeem time, where the authority's replay cache rejects the
//     double-spend deterministically.
//
//   - Forgery constructors (forge.go): client attacks on the ticket
//     chain itself — tampered amounts, self-issued roots, spliced
//     chains, widened delegations. Each must fail Ticket.Verify /
//     Authority.Redeem with its typed error; the chaos attack ticker
//     asserts exactly that, every period, in every seed.
//
// Nothing in this package weakens the honest components: every attack
// goes through the same public surfaces a correct participant uses.
package adversary

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
)

// oversellEntry is one stocked root ticket with how much has been sold
// against it (honest brokers decrement a remainder; this one only
// counts upward, toward Factor times the real amount).
type oversellEntry struct {
	ticket     *sharp.Ticket
	leafAmount float64
	sold       float64
}

// OversellBroker is the byzantine broker.Seller. It lies on every
// surface a seller controls: Inventory reports Factor× its real stock,
// Sell delegates the full stock window rather than the requested one
// (an offer too good to be true — and the wide window is what makes a
// cached ticket cover later requests), and every ReplayEvery-th sale
// for a site returns the previously sold ticket verbatim instead of a
// fresh delegation.
type OversellBroker struct {
	// Factor inflates announced inventory and bounds cumulative sales
	// per stocked root (>= 1).
	Factor float64
	// ReplayEvery re-sells the cached previous delegation every k-th
	// sale per site (1 = every sale after the first; 0 disables the
	// double-sell, leaving only overselling).
	ReplayEvery int

	// SoldN counts sales; ReplaySoldN counts sales that re-used a
	// previously sold ticket.
	SoldN, ReplaySoldN int

	name     string
	signer   *identity.Principal
	serial   uint64
	stock    []*oversellEntry
	saleN    map[string]int           // per-site sale counter
	lastSold map[string]*sharp.Ticket // per-site cached previous sale
}

// NewOversellBroker creates the byzantine seller around its own signing
// principal.
func NewOversellBroker(signer *identity.Principal, factor float64, replayEvery int) *OversellBroker {
	if factor < 1 {
		factor = 1
	}
	return &OversellBroker{
		Factor:      factor,
		ReplayEvery: replayEvery,
		name:        signer.Name,
		signer:      signer,
		saleN:       make(map[string]int),
		lastSold:    make(map[string]*sharp.Ticket),
	}
}

// SellerName identifies the broker on an exchange.
func (b *OversellBroker) SellerName() string { return b.name }

// Key returns the broker's public key (authorities issue stock to it).
func (b *OversellBroker) Key() ed25519.PublicKey { return b.signer.Public() }

// Acquire stores a root ticket issued to this broker — its real stock,
// which it will sell many times over.
func (b *OversellBroker) Acquire(t *sharp.Ticket) error {
	leaf := t.Leaf()
	if leaf == nil || !leaf.HolderKey.Equal(b.signer.Public()) {
		return sharp.ErrNotHolder
	}
	b.stock = append(b.stock, &oversellEntry{ticket: t, leafAmount: leaf.Amount})
	return nil
}

// Inventory announces Factor times the real unsold stock — the
// oversubscription lie. A buyer that believes this number will route
// purchases here long after the honest remainder is gone.
func (b *OversellBroker) Inventory(site string, typ capability.ResourceType) float64 {
	total := 0.0
	for _, e := range b.stock {
		leaf := e.ticket.Leaf()
		if leaf.Site == site && leaf.Type == typ {
			if room := e.leafAmount*b.Factor - e.sold; room > 0 {
				total += room
			}
		}
	}
	return total
}

// Sell implements broker.Seller byzantinely: every ReplayEvery-th sale
// per site returns the cached previous delegation verbatim (if it
// covers the request — the wide windows below make sure it usually
// does); otherwise it mints a fresh, individually valid delegation for
// the full stock window, counting cumulative sales against
// Factor×stock instead of decrementing a remainder.
func (b *OversellBroker) Sell(buyerName string, buyerKey ed25519.PublicKey, site string, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) ([]*sharp.Ticket, error) {
	key := fmt.Sprintf("%s/%d", site, typ)
	b.saleN[key]++
	if b.ReplayEvery > 0 && b.saleN[key] > 1 && (b.saleN[key]-1)%b.ReplayEvery == 0 {
		if prev := b.lastSold[key]; prev != nil {
			leaf := prev.Leaf()
			if leaf.Amount >= amount && leaf.NotBefore <= notBefore && leaf.NotAfter >= notAfter {
				b.SoldN++
				b.ReplaySoldN++
				return []*sharp.Ticket{prev}, nil
			}
		}
	}
	for _, e := range b.stock {
		leaf := e.ticket.Leaf()
		if leaf.Site != site || leaf.Type != typ {
			continue
		}
		if e.sold+amount > e.leafAmount*b.Factor || amount > e.leafAmount {
			continue
		}
		b.serial++
		// Delegate the whole stock window, not the requested one: the
		// over-generous ticket covers any later request, so the cached
		// copy stays replayable.
		sub, err := e.ticket.Delegate(b.signer, buyerName, buyerKey, amount, leaf.NotBefore, leaf.NotAfter, b.serial)
		if err != nil {
			return nil, err
		}
		e.sold += amount
		b.SoldN++
		b.lastSold[key] = sub
		return []*sharp.Ticket{sub}, nil
	}
	return nil, fmt.Errorf("%w: oversell budget exhausted for %s", sharp.ErrInventory, site)
}
