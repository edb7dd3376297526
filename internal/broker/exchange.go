package broker

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/capability"
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
		if !(amount > 0 && amount <= s.Inventory(site, typ)) {
			continue // written so a NaN amount finds no seller
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
// The house agent (a nil exchange) posts no collateral to seize.
func (x *Exchange) slash(bank *trust.Bank, seller, site string, fraud error) {
	if x == nil || bank == nil {
		return
	}
	took, err := bank.Slash(seller, x.SlashPenalty, fmt.Sprintf("%s: %v", site, fraud))
	if err != nil {
		x.SlashErrN++
		return
	}
	x.SlashN++
	x.SlashTotal += took
}

// record books one purchase attempt in the seller's market history and
// as a SellerOutcome for the buyer's scoreboard. The house agent (a nil
// exchange) is not a market: nothing is counted or reported.
func (x *Exchange) record(outcomes []SellerOutcome, site string, s Seller, err error) []SellerOutcome {
	if x == nil {
		return outcomes
	}
	st := x.stats[s.SellerName()]
	st.Picked++
	if err != nil {
		st.RedeemFail++
	} else {
		st.RedeemOK++
	}
	return append(outcomes, SellerOutcome{Site: site, Seller: s.SellerName(), OK: err == nil, Err: err})
}

// buy is the one purchase loop (Figure 2 steps 3-6): try each seller in
// order — sell buys its tickets, convert turns them into leases at the
// site, rolling its own partial work back on failure — until one
// seller's tickets convert. A nil exchange is the house agent selling
// alone, so order is never empty there. Refusing to sell claimed
// inventory is a failed outcome but not slashable fraud (no bogus
// ticket reached the site); a fraudulent conversion failure slashes the
// seller's collateral at bank.
func (x *Exchange) buy(order []Seller, site string, bank *trust.Bank, sell func(Seller) ([]*sharp.Ticket, error), convert func([]*sharp.Ticket) ([]*sharp.Lease, error)) ([]*sharp.Lease, []SellerOutcome, error) {
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoSellers, site)
	}
	var outcomes []SellerOutcome
	var lastErr error
	for _, s := range order {
		tickets, err := sell(s)
		if err != nil {
			outcomes = x.record(outcomes, site, s, err)
			lastErr = fmt.Errorf("%w: %v", ErrNoTickets, err)
			continue
		}
		leases, err := convert(tickets)
		outcomes = x.record(outcomes, site, s, err)
		if err == nil {
			return leases, outcomes, nil
		}
		if fraudulent(err) {
			x.slash(bank, s.SellerName(), site, err)
		}
		lastErr = err
	}
	return nil, outcomes, lastErr
}

// Purchase is a bare market buy: rank the eligible sellers for the site
// and run the purchase loop with a redeem-only conversion. No VM is
// bound; callers that only probe the market (reputation exercisers,
// tests) release the returned leases themselves.
func (x *Exchange) Purchase(buyerName string, buyerKey ed25519.PublicKey, site string, rt *SiteRuntime, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) ([]*sharp.Lease, []SellerOutcome, error) {
	return x.buy(x.rank(site, typ, amount, rt.Bank), site, rt.Bank,
		func(s Seller) ([]*sharp.Ticket, error) {
			return s.Sell(buyerName, buyerKey, site, typ, amount, notBefore, notAfter)
		},
		func(tickets []*sharp.Ticket) ([]*sharp.Lease, error) {
			var leases []*sharp.Lease
			for _, tk := range tickets {
				lease, err := rt.Authority.Redeem(tk)
				if err != nil {
					for _, l := range leases {
						rt.Authority.ReleaseLease(l)
					}
					return nil, err
				}
				leases = append(leases, lease)
			}
			return leases, nil
		})
}

// redeemAndBind converts bought tickets into leases backing a started
// VM, rolling everything back on failure.
func (d *Deployer) redeemAndBind(slice *vm.Slice, sliceName, site string, rt *SiteRuntime, tickets []*sharp.Ticket) ([]*sharp.Lease, error) {
	var leases []*sharp.Lease
	v := vm.New(sliceName+"@"+site, rt.Node, rt.NM)
	fail := func(err error) ([]*sharp.Lease, error) {
		for _, l := range leases {
			rt.Authority.ReleaseLease(l)
		}
		if v.State() == vm.Running {
			v.Stop()
		}
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
