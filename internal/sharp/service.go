package sharp

import (
	"crypto/ed25519"
	"time"

	"repro/internal/capability"
	"repro/internal/simnet"
)

// This file puts the SHARP roles on the wire: an AuthorityService and an
// AgentService register simnet handlers, so ticket acquisition, resale,
// and redemption pay real WAN round-trips (and can be lost, timed out,
// or partitioned away). The in-process Authority/Agent types stay the
// source of truth; the services are thin, faithful protocol adapters —
// which is also how SHARP was built: local state, signed messages.

// Service names registered by the SHARP roles.
const (
	SvcIssue  = "sharp.issue"  // authority: request a root ticket
	SvcRedeem = "sharp.redeem" // authority: redeem a ticket for a lease
	SvcBuy    = "sharp.buy"    // agent: buy a delegated ticket
)

// IssueRequest asks an authority for a root ticket.
type IssueRequest struct {
	HolderName string
	HolderKey  ed25519.PublicKey
	Type       capability.ResourceType
	Amount     float64
	NotBefore  time.Duration
	NotAfter   time.Duration
}

// BuyRequest asks an agent for a delegated ticket.
type BuyRequest struct {
	BuyerName string
	BuyerKey  ed25519.PublicKey
	Site      string
	Type      capability.ResourceType
	Amount    float64
	NotBefore time.Duration
	NotAfter  time.Duration
}

// BuyReply carries the delegated tickets (possibly several when the
// agent's stock is fragmented).
type BuyReply struct {
	Tickets []*Ticket
}

// AuthorityService exposes an Authority on a host.
type AuthorityService struct {
	Auth *Authority
	Host string
}

// NewAuthorityService registers the issue and redeem handlers.
func NewAuthorityService(net *simnet.Network, host string, auth *Authority) *AuthorityService {
	s := &AuthorityService{Auth: auth, Host: host}
	h := net.Host(host)
	simnet.Serve(h, SvcIssue, func(from string, req IssueRequest) (*Ticket, error) {
		return auth.IssueTicket(req.HolderName, req.HolderKey, req.Type, req.Amount, req.NotBefore, req.NotAfter)
	})
	simnet.Serve(h, SvcRedeem, func(from string, tk *Ticket) (*Lease, error) {
		return auth.Redeem(tk)
	})
	return s
}

// AgentService exposes an Agent's resale interface on a host.
type AgentService struct {
	Agent *Agent
	Host  string
}

// NewAgentService registers the buy handler.
func NewAgentService(net *simnet.Network, host string, agent *Agent) *AgentService {
	s := &AgentService{Agent: agent, Host: host}
	simnet.Serve(net.Host(host), SvcBuy, func(from string, req BuyRequest) (BuyReply, error) {
		tickets, err := agent.Sell(req.BuyerName, req.BuyerKey, req.Site, req.Type, req.Amount, req.NotBefore, req.NotAfter)
		if err != nil {
			return BuyReply{}, err
		}
		return BuyReply{Tickets: tickets}, nil
	})
	return s
}

// IssueOverNet requests a root ticket from an authority host.
func IssueOverNet(net *simnet.Network, from, authHost string, req IssueRequest, timeout time.Duration, done func(*Ticket, error)) {
	simnet.Request(net, from, authHost, SvcIssue, req, timeout, done)
}

// BuyOverNet buys a delegated ticket from an agent host.
func BuyOverNet(net *simnet.Network, from, agentHost string, req BuyRequest, timeout time.Duration, done func([]*Ticket, error)) {
	simnet.Request(net, from, agentHost, SvcBuy, req, timeout, func(r BuyReply, err error) { done(r.Tickets, err) })
}

// RedeemOverNet redeems a ticket at an authority host.
func RedeemOverNet(net *simnet.Network, from, authHost string, tk *Ticket, timeout time.Duration, done func(*Lease, error)) {
	simnet.Request(net, from, authHost, SvcRedeem, tk, timeout, done)
}
