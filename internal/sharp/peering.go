package sharp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
)

// Peering implements the site-to-site half of SHARP that Figure 2's
// caption summarizes: "sites can trade resources with dynamically
// discovered partners or contribute resources to federations according
// to local policies." Each site runs a Peer wrapping its Authority; a
// barter exchanges equal amounts of ticketed CPU in both directions, so
// a site's outstanding exports are always covered by imports — the
// local-policy constraint the paper emphasizes.

// Peering errors.
var (
	ErrPeerPolicy   = errors.New("sharp: peer refused by local policy")
	ErrSelfPeering  = errors.New("sharp: site cannot peer with itself")
	ErrBarterFailed = errors.New("sharp: barter could not issue both legs")
)

// PeerPolicy is a site's local trading policy.
type PeerPolicy struct {
	// MaxExport bounds total CPU the site will ticket to peers.
	MaxExport float64
	// AllowList, when non-empty, restricts trading partners.
	AllowList []string
}

func (p PeerPolicy) allows(site string) bool {
	if len(p.AllowList) == 0 {
		return true
	}
	for _, s := range p.AllowList {
		if s == site {
			return true
		}
	}
	return false
}

// Peer is one site's trading arm: an Authority plus an Agent identity
// that holds tickets imported from partners.
type Peer struct {
	Site      string
	Authority *Authority
	Policy    PeerPolicy

	holder   *identity.Principal
	imports  *Agent
	exported float64
}

// NewPeer wraps an authority for trading.
func NewPeer(auth *Authority, holder *identity.Principal, policy PeerPolicy) *Peer {
	return &Peer{
		Site:      auth.Site,
		Authority: auth,
		Policy:    policy,
		holder:    holder,
		imports:   NewAgent(holder),
	}
}

// Imports exposes the agent holding tickets acquired from partners, so
// local service managers can buy foreign resources from their own site.
func (p *Peer) Imports() *Agent { return p.imports }

// Exported returns total CPU ticketed away to peers.
func (p *Peer) Exported() float64 { return p.exported }

// Barter exchanges `amount` CPU of tickets in both directions between two
// peers over [notBefore, notAfter). Both legs must be permitted by both
// policies and issuable by both authorities, or nothing changes.
func Barter(a, b *Peer, amount float64, notBefore, notAfter time.Duration) error {
	if a.Site == b.Site {
		return ErrSelfPeering
	}
	if !a.Policy.allows(b.Site) || !b.Policy.allows(a.Site) {
		return fmt.Errorf("%w: %s<->%s", ErrPeerPolicy, a.Site, b.Site)
	}
	if a.exported+amount > a.Policy.MaxExport {
		return fmt.Errorf("%w: %s export cap", ErrPeerPolicy, a.Site)
	}
	if b.exported+amount > b.Policy.MaxExport {
		return fmt.Errorf("%w: %s export cap", ErrPeerPolicy, b.Site)
	}
	// Issue a->b first; on failure of the reverse leg, the first ticket
	// is simply never distributed (soft claims cost nothing until
	// redeemed, so abandoning it is safe — SHARP's key property).
	tkAB, err := a.Authority.IssueTicket(b.holder.Name, b.holder.Public(), capability.CPU, amount, notBefore, notAfter)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBarterFailed, err)
	}
	tkBA, err := b.Authority.IssueTicket(a.holder.Name, a.holder.Public(), capability.CPU, amount, notBefore, notAfter)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBarterFailed, err)
	}
	if err := b.imports.Acquire(tkAB); err != nil {
		return fmt.Errorf("%w: %v", ErrBarterFailed, err)
	}
	if err := a.imports.Acquire(tkBA); err != nil {
		return fmt.Errorf("%w: %v", ErrBarterFailed, err)
	}
	a.exported += amount
	b.exported += amount
	return nil
}

// Federation is a set of peers trading pairwise.
type PeerFederation struct {
	peers map[string]*Peer
}

// NewPeerFederation registers the peers.
func NewPeerFederation(peers ...*Peer) *PeerFederation {
	f := &PeerFederation{peers: make(map[string]*Peer, len(peers))}
	for _, p := range peers {
		f.peers[p.Site] = p
	}
	return f
}

// Peer returns a member by site name.
func (f *PeerFederation) Peer(site string) *Peer { return f.peers[site] }

// MeshBarter runs pairwise barters of `amount` between every allowed
// pair, in deterministic site order, and reports how many trades
// happened. This is the "contribute resources to federations" mode: after
// a full mesh, every site holds claims on every partner.
func (f *PeerFederation) MeshBarter(amount float64, notBefore, notAfter time.Duration) (trades int) {
	sites := make([]string, 0, len(f.peers))
	for s := range f.peers {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			if err := Barter(f.peers[sites[i]], f.peers[sites[j]], amount, notBefore, notAfter); err == nil {
				trades++
			}
		}
	}
	return trades
}

// ForeignInventory sums the CPU a site holds on all partners. Partner
// order is sorted: float addition is not associative, so summing in map
// iteration order would make the total's low bits schedule-dependent.
func (p *Peer) ForeignInventory(f *PeerFederation) float64 {
	sites := make([]string, 0, len(f.peers))
	for site := range f.peers {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	total := 0.0
	for _, site := range sites {
		if site == p.Site {
			continue
		}
		total += p.imports.Inventory(site, capability.CPU)
	}
	return total
}
