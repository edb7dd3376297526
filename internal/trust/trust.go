// Package trust is the reputation/collateral layer that prices
// byzantine brokers out of a SHARP federation. It has two halves:
//
//   - Bank: a per-authority collateral ledger. A broker posts a deposit
//     before it may sell claims against the site; detected misbehaviour
//     (replayed tickets, overselling surfacing as redeem conflicts)
//     slashes the deposit. A broker whose collateral is exhausted is no
//     longer eligible to sell at that site, so sustained fraud starves
//     the fraudster rather than the service.
//
//   - Scoreboard: decayed per-broker redeem-success scores kept by
//     service managers. Every deploy outcome (did the ticket this
//     broker sold actually redeem into a lease?) updates an EWMA;
//     broker selection is weighted by score, so honest-majority
//     federations converge onto honest brokers.
//
// Everything is deterministic: accounts and scores are stored alongside
// an insertion-order slice, never iterated via map range, so float
// accumulation order and rendered output are byte-identical across
// runs, worker counts, and snapshot forks.
package trust

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Ledger and scoreboard errors.
var (
	// ErrNoAccount reports a slash against a broker that never posted
	// collateral — the caller should have refused the sale instead.
	ErrNoAccount = errors.New("trust: broker has no collateral account")
	// ErrBadAmount reports a non-positive deposit or slash amount.
	ErrBadAmount = errors.New("trust: amount must be positive")
	// ErrNoBroker reports a score report or lookup with an empty broker
	// name.
	ErrNoBroker = errors.New("trust: empty broker name")
)

// account is one broker's collateral position at one bank. The
// conservation invariant deposited == held + slashed is checked by
// CheckConservation and audited by faultlab's invariant sweep.
type account struct {
	name      string
	deposited float64
	held      float64
	slashed   float64
}

// SlashEvent records one collateral seizure, for evidence tables and
// audits.
type SlashEvent struct {
	Broker string
	Amount float64
	Reason string
}

// Bank is one authority's collateral ledger. Not safe for concurrent
// use; in the simulation all calls happen on the engine goroutine.
type Bank struct {
	// Site names the authority this ledger belongs to (label only).
	Site string

	accounts map[string]*account
	order    []string // account creation order: deterministic iteration
	events   []SlashEvent
}

// NewBank creates an empty ledger for one site authority.
func NewBank(site string) *Bank {
	return &Bank{Site: site, accounts: make(map[string]*account)}
}

// Deposit posts collateral for a broker, creating its account on first
// use.
func (b *Bank) Deposit(broker string, amount float64) error {
	if broker == "" {
		return ErrNoBroker
	}
	if amount <= 0 || math.IsNaN(amount) {
		return fmt.Errorf("%w: deposit %v", ErrBadAmount, amount)
	}
	ac, ok := b.accounts[broker]
	if !ok {
		ac = &account{name: broker}
		b.accounts[broker] = ac
		b.order = append(b.order, broker)
	}
	ac.deposited += amount
	ac.held += amount
	return nil
}

// Slash seizes up to amount from the broker's held collateral and
// returns how much was actually taken (a fully drained account slashes
// zero — the broker is already priced out). The event is recorded
// either way so evidence tables can show repeat offenses.
func (b *Bank) Slash(broker string, amount float64, reason string) (float64, error) {
	if broker == "" {
		return 0, ErrNoBroker
	}
	if amount <= 0 || math.IsNaN(amount) {
		return 0, fmt.Errorf("%w: slash %v", ErrBadAmount, amount)
	}
	ac, ok := b.accounts[broker]
	if !ok {
		return 0, fmt.Errorf("%w: %q at %q", ErrNoAccount, broker, b.Site)
	}
	take := math.Min(amount, ac.held)
	ac.held -= take
	ac.slashed += take
	b.events = append(b.events, SlashEvent{Broker: broker, Amount: take, Reason: reason})
	return take, nil
}

// Held reports a broker's current collateral (0 for unknown brokers).
func (b *Bank) Held(broker string) float64 {
	if ac, ok := b.accounts[broker]; ok {
		return ac.held
	}
	return 0
}

// Events returns a copy of the slash log in occurrence order.
func (b *Bank) Events() []SlashEvent {
	return append([]SlashEvent(nil), b.events...)
}

// TotalHeld sums held collateral in account-creation order.
func (b *Bank) TotalHeld() float64 {
	var t float64
	for _, n := range b.order {
		t += b.accounts[n].held
	}
	return t
}

// TotalSlashed sums seized collateral in account-creation order.
func (b *Bank) TotalSlashed() float64 {
	var t float64
	for _, n := range b.order {
		t += b.accounts[n].slashed
	}
	return t
}

// CheckConservation verifies deposited == held + slashed for every
// account (the ledger mints and burns nothing). Returns the first
// violated account, nil when the ledger balances.
func (b *Bank) CheckConservation() error {
	for _, n := range b.order {
		ac := b.accounts[n]
		if math.Abs(ac.deposited-(ac.held+ac.slashed)) > 1e-9 {
			return fmt.Errorf("trust: conservation violated for %q at %q: deposited %.9f != held %.9f + slashed %.9f",
				n, b.Site, ac.deposited, ac.held, ac.slashed)
		}
	}
	return nil
}

// BrokerScore is one scoreboard row.
type BrokerScore struct {
	Broker  string
	Score   float64
	Reports int
}

// Scoreboard keeps a service manager's decayed per-broker
// redeem-success scores. A broker starts at the 0.5 prior; each
// reported outcome folds in as score = decay*score + (1-decay)*v with
// v 1 for success, 0 for failure. Scores therefore live in [0, 1] and
// converge geometrically toward a broker's recent success rate.
type Scoreboard struct {
	decay   float64
	scores  map[string]float64
	reports map[string]int
	order   []string // first-report order: deterministic iteration
}

// DefaultScoreDecay is the history weight used when NewScoreboard is
// given a value outside (0, 1).
const DefaultScoreDecay = 0.8

// scorePrior is where an unseen broker starts: agnostic.
const scorePrior = 0.5

// NewScoreboard creates a scoreboard with the given history decay
// (clamped to DefaultScoreDecay when outside (0, 1)).
func NewScoreboard(decay float64) *Scoreboard {
	if !(decay > 0 && decay < 1) {
		decay = DefaultScoreDecay
	}
	return &Scoreboard{
		decay:   decay,
		scores:  make(map[string]float64),
		reports: make(map[string]int),
	}
}

// ReportOutcome folds one deploy outcome for a broker into its score.
func (s *Scoreboard) ReportOutcome(broker string, ok bool) error {
	if broker == "" {
		return ErrNoBroker
	}
	sc, seen := s.scores[broker]
	if !seen {
		sc = scorePrior
		s.order = append(s.order, broker)
	}
	v := 0.0
	if ok {
		v = 1.0
	}
	s.scores[broker] = s.decay*sc + (1-s.decay)*v
	s.reports[broker]++
	return nil
}

// Score returns a broker's current score (the prior for unseen
// brokers).
func (s *Scoreboard) Score(broker string) float64 {
	if sc, ok := s.scores[broker]; ok {
		return sc
	}
	return scorePrior
}

// Snapshot returns all rows sorted by broker name (stable render
// order regardless of report order).
func (s *Scoreboard) Snapshot() []BrokerScore {
	out := make([]BrokerScore, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, BrokerScore{Broker: n, Score: s.scores[n], Reports: s.reports[n]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Broker < out[j].Broker })
	return out
}

// CheckBounds verifies every score is a number in [0, 1] — the EWMA
// can produce nothing else, so a violation means corrupted state.
func (s *Scoreboard) CheckBounds() error {
	for _, n := range s.order {
		sc := s.scores[n]
		if math.IsNaN(sc) || sc < 0 || sc > 1 {
			return fmt.Errorf("trust: score out of bounds for %q: %v", n, sc)
		}
	}
	return nil
}
