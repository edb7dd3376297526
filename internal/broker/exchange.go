package broker

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/sharp"
	"repro/internal/trust"
	"repro/internal/vm"
)

// ErrNoSellers reports a market purchase with no eligible seller —
// every registered broker is either out of collateral at the site or
// claims no inventory for it.
var ErrNoSellers = errors.New("broker: no eligible sellers for site")

// Seller is the market-facing surface of a SHARP broker: something that
// claims inventory and sells delegated tickets against it.
// *sharp.Agent is the honest implementation; adversary.OversellBroker
// lies through exactly this interface — inflated inventory, replayed
// and oversubscribed tickets — which is why the buyer must score
// redeem outcomes rather than trust the answers.
type Seller interface {
	SellerName() string
	Inventory(site string, typ capability.ResourceType) float64
	Sell(buyerName string, buyerKey ed25519.PublicKey, site string, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) ([]*sharp.Ticket, error)
}

// SellerStats counts one seller's market history on an exchange.
type SellerStats struct {
	// Picked counts times the seller was chosen as a purchase attempt.
	Picked int
	// RedeemOK / RedeemFail count purchase attempts whose tickets did /
	// did not convert into leases.
	RedeemOK, RedeemFail int
}

// Exchange is the score-weighted ticket market the deployer buys from
// when one is installed: sellers register once; each site purchase
// picks a primary seller with probability proportional to the square of
// its scoreboard score (squaring sharpens convergence away from
// low-scored brokers), then fails over through the remaining eligible
// sellers in descending score order. Eligibility requires unslashed
// collateral at the target site's bank, so a broker whose deposits
// fraud has drained is priced out entirely — the economic half of the
// byzantine defense.
type Exchange struct {
	// SlashPenalty is the collateral seized per detected fraud
	// (replayed or double-spent ticket, oversell conflict, forged
	// chain). Defaults to 1 CPU-unit of collateral.
	SlashPenalty float64

	// MinScore is a reputation eligibility floor: sellers scored below
	// it are excluded from a purchase whenever at least one seller at or
	// above the floor is eligible. The conditional keeps the market live
	// during cold start and when every broker has been dragged down —
	// starving all sellers would turn a reputation signal into a
	// self-inflicted outage. Zero disables the floor.
	MinScore float64

	sellers []Seller
	scores  *trust.Scoreboard
	rng     *rand.Rand
	stats   map[string]*SellerStats

	// SlashN / SlashTotal aggregate collateral actually seized via this
	// exchange; SlashErrN counts ledger refusals (no account — a seller
	// admitted without collateral, which eligibility should prevent).
	SlashN     int
	SlashTotal float64
	SlashErrN  int
}

// NewExchange creates an empty market. rng drives the weighted primary
// pick and must be forked from the engine (determinism); scores may be
// nil, in which case every seller weighs the same.
func NewExchange(rng *rand.Rand, scores *trust.Scoreboard) *Exchange {
	return &Exchange{
		SlashPenalty: 1,
		scores:       scores,
		rng:          rng,
		stats:        make(map[string]*SellerStats),
	}
}

// AddSeller registers a seller. Registration order is the deterministic
// tiebreak everywhere the exchange orders sellers.
func (x *Exchange) AddSeller(s Seller) {
	x.sellers = append(x.sellers, s)
	x.stats[s.SellerName()] = &SellerStats{}
}

// Stats returns the market history for a seller name (zero value for
// unknown names).
func (x *Exchange) Stats(name string) SellerStats {
	if st, ok := x.stats[name]; ok {
		return *st
	}
	return SellerStats{}
}

// score returns the scoreboard score for a seller (neutral 0.5 without
// a scoreboard).
func (x *Exchange) score(name string) float64 {
	if x.scores == nil {
		return 0.5
	}
	return x.scores.Score(name)
}

// rank orders eligible sellers for one purchase: collateral-gated
// (bank non-nil ⇒ Held > 0 required), inventory-claimed (the seller
// says it can cover the amount — byzantine sellers lie here, which is
// fine: their redeem failures are how they are found out), primary
// picked by score²-weighted draw, failover by descending score.
func (x *Exchange) rank(site string, typ capability.ResourceType, amount float64, bank *trust.Bank) []Seller {
	type cand struct {
		s     Seller
		score float64
		idx   int
	}
	var elig []cand
	for i, s := range x.sellers {
		if bank != nil && bank.Held(s.SellerName()) <= 0 {
			continue
		}
		if s.Inventory(site, typ) < amount {
			continue
		}
		elig = append(elig, cand{s: s, score: x.score(s.SellerName()), idx: i})
	}
	if x.MinScore > 0 {
		above := elig[:0:0]
		for _, c := range elig {
			if c.score >= x.MinScore {
				above = append(above, c)
			}
		}
		if len(above) > 0 {
			elig = above
		}
	}
	if len(elig) == 0 {
		return nil
	}
	primary := 0
	if len(elig) > 1 {
		var total float64
		for _, c := range elig {
			total += c.score * c.score
		}
		u := x.rng.Float64() * total
		if total > 0 {
			acc := 0.0
			for i, c := range elig {
				acc += c.score * c.score
				if u < acc {
					primary = i
					break
				}
			}
		}
	}
	out := make([]Seller, 0, len(elig))
	out = append(out, elig[primary].s)
	rest := append([]cand(nil), elig[:primary]...)
	rest = append(rest, elig[primary+1:]...)
	sort.SliceStable(rest, func(i, j int) bool {
		if rest[i].score != rest[j].score {
			return rest[i].score > rest[j].score
		}
		return rest[i].idx < rest[j].idx
	})
	for _, c := range rest {
		out = append(out, c.s)
	}
	return out
}

// fraudulent classifies a redeem failure as seller fraud: a replayed or
// double-spent ticket, a capacity conflict (overselling surfacing at
// redeem time), or a chain that fails cryptographic verification. Plain
// expiry or an unreachable site is the buyer's or network's problem,
// not the seller's.
func fraudulent(err error) bool {
	return errors.Is(err, sharp.ErrReplayed) ||
		errors.Is(err, sharp.ErrDoubleSpend) ||
		errors.Is(err, sharp.ErrConflict) ||
		errors.Is(err, sharp.ErrBadSignature) ||
		errors.Is(err, sharp.ErrBadChain) ||
		errors.Is(err, sharp.ErrAmountWidened)
}

// slash seizes collateral for one detected fraud, tolerating a missing
// account (counted, not fatal — the run's invariant sweep will flag it).
func (x *Exchange) slash(bank *trust.Bank, seller, reason string) {
	if bank == nil {
		return
	}
	took, err := bank.Slash(seller, x.SlashPenalty, reason)
	if err != nil {
		x.SlashErrN++
		return
	}
	x.SlashN++
	x.SlashTotal += took
}

// Purchase is a bare market buy: rank the eligible sellers for the
// site, then try each in order — buy tickets, redeem them at the site
// authority — until one seller's tickets convert into leases. No VM is
// bound; callers that only probe the market (reputation exercisers,
// tests) release the returned leases themselves. Every attempt is
// returned as a SellerOutcome for the buyer's scoreboard; fraudulent
// redeem failures slash the seller's collateral exactly as the deploy
// path does.
func (x *Exchange) Purchase(buyerName string, buyerKey ed25519.PublicKey, site string, rt *SiteRuntime, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) ([]*sharp.Lease, []SellerOutcome, error) {
	order := x.rank(site, typ, amount, rt.Bank)
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoSellers, site)
	}
	var outcomes []SellerOutcome
	var lastErr error
	for _, s := range order {
		name := s.SellerName()
		x.stats[name].Picked++
		tickets, err := s.Sell(buyerName, buyerKey, site, typ, amount, notBefore, notAfter)
		if err != nil {
			x.stats[name].RedeemFail++
			outcomes = append(outcomes, SellerOutcome{Site: site, Seller: name, Err: err})
			lastErr = fmt.Errorf("%w: %v", ErrNoTickets, err)
			continue
		}
		var leases []*sharp.Lease
		redeemErr := error(nil)
		for _, tk := range tickets {
			lease, err := rt.Authority.Redeem(tk)
			if err != nil {
				redeemErr = err
				break
			}
			leases = append(leases, lease)
		}
		if redeemErr != nil {
			for _, l := range leases {
				rt.Authority.ReleaseLease(l)
			}
			x.stats[name].RedeemFail++
			outcomes = append(outcomes, SellerOutcome{Site: site, Seller: name, Err: redeemErr})
			if fraudulent(redeemErr) {
				x.slash(rt.Bank, name, fmt.Sprintf("%s: %v", site, redeemErr))
			}
			lastErr = redeemErr
			continue
		}
		x.stats[name].RedeemOK++
		outcomes = append(outcomes, SellerOutcome{Site: site, Seller: name, OK: true})
		return leases, outcomes, nil
	}
	return nil, outcomes, lastErr
}

// deploySiteMarket is deploySite's exchange path: rank the eligible
// sellers, then try each in order — buy, redeem, bind — until one's
// tickets convert into leases. Every attempt is recorded as a
// SellerOutcome for the buyer's scoreboard; fraudulent redeem failures
// slash the seller's collateral at the site bank.
func (d *Deployer) deploySiteMarket(span obs.SpanContext, res *DeployResult, rt *SiteRuntime, sliceName string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, site string) ([]*sharp.Lease, error) {
	if err := d.reachable(site); err != nil {
		return nil, err
	}
	x := d.Exchange
	order := x.rank(site, capability.CPU, cpuPerSite, rt.Bank)
	if len(order) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSellers, site)
	}
	var lastErr error
	for _, s := range order {
		name := s.SellerName()
		x.stats[name].Picked++
		d.Hops += 2 // buy request + ticket grant
		tickets, err := s.Sell(sm.Name, sm.Public(), site, capability.CPU, cpuPerSite, notBefore, notAfter)
		if err != nil {
			// Refusing to sell claimed inventory is a failed outcome for
			// the scoreboard but not slashable fraud — no bogus ticket
			// was presented to the site.
			x.stats[name].RedeemFail++
			res.Outcomes = append(res.Outcomes, SellerOutcome{Site: site, Seller: name, Err: err})
			lastErr = fmt.Errorf("%w: %v", ErrNoTickets, err)
			continue
		}
		leases, err := d.redeemAndBind(span, res.Slice, sliceName, site, rt, tickets)
		if err != nil {
			x.stats[name].RedeemFail++
			res.Outcomes = append(res.Outcomes, SellerOutcome{Site: site, Seller: name, Err: err})
			if fraudulent(err) {
				x.slash(rt.Bank, name, fmt.Sprintf("%s: %v", site, err))
			}
			lastErr = err
			continue
		}
		x.stats[name].RedeemOK++
		res.Outcomes = append(res.Outcomes, SellerOutcome{Site: site, Seller: name, OK: true})
		return leases, nil
	}
	return nil, lastErr
}

// redeemAndBind converts bought tickets into leases backing a started
// VM, rolling everything back on failure. Shared by the market path's
// per-seller attempts.
func (d *Deployer) redeemAndBind(span obs.SpanContext, slice *vm.Slice, sliceName, site string, rt *SiteRuntime, tickets []*sharp.Ticket) ([]*sharp.Lease, error) {
	var leases []*sharp.Lease
	v := vm.New(sliceName+"@"+site, rt.Node, rt.NM)
	fail := func(err error) ([]*sharp.Lease, error) {
		for _, l := range leases {
			rt.Authority.ReleaseLease(l)
		}
		if v.State() == vm.Running {
			v.Stop()
		}
		span.Annotate(obs.Err(err))
		return nil, err
	}
	for _, tk := range tickets {
		d.Hops += 2 // redeem + lease grant
		lease, err := rt.Authority.Redeem(tk)
		if err != nil {
			return fail(err)
		}
		leases = append(leases, lease)
		if err := v.Bind(lease.CapID); err != nil {
			return fail(err)
		}
	}
	if err := v.Start(); err != nil {
		return fail(err)
	}
	if err := slice.Add(v); err != nil {
		return fail(err)
	}
	return leases, nil
}
