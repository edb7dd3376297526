package faultlab

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/broker"
	"repro/internal/capability"
	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/metrics"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/trust"
)

// ByzantineConfig adds adversarial actors and the reputation/collateral
// defense to a chaos run. The zero value (both broker counts zero)
// disables the whole layer and keeps the scenario byte-identical to a
// pre-byzantine run.
type ByzantineConfig struct {
	// HonestBrokers and ByzantineBrokers populate the ticket exchange.
	// Honest brokers are plain sharp agents; byzantine ones are
	// adversary.OversellBrokers.
	HonestBrokers    int
	ByzantineBrokers int
	// StockPerSite is each broker's real per-site root ticket amount.
	StockPerSite float64
	// OversellFactor and ReplayEvery shape the byzantine brokers (see
	// adversary.OversellBroker).
	OversellFactor float64
	ReplayEvery    int
	// Deposit is each broker's collateral at each site bank; SlashPenalty
	// the seizure per detected fraud.
	Deposit      float64
	SlashPenalty float64
	// ScoreDecay and MinScore tune the buyer-side scoreboard and the
	// exchange's reputation eligibility floor.
	ScoreDecay float64
	MinScore   float64
	// AttackEvery paces the client-side attack ticker (replayed redeems
	// and forged chains thrown at the round-robin next live site). Zero
	// disables the ticker.
	AttackEvery time.Duration
	// ShopEvery paces the market exerciser: a steady stream of probe
	// purchases (bought on the exchange, redeemed, outcome-scored, lease
	// released) standing in for the federation's other service managers.
	// This is the traffic the reputation loop converges on — without it
	// the managed service alone buys too rarely for byzantine brokers to
	// be found out. Zero disables it. ShopAmount is the per-purchase ask.
	ShopEvery  time.Duration
	ShopAmount float64
	// LateFraction positions the market-share measurement mark: the
	// byzantine share is computed over redeems after LateFraction of the
	// run, when the scoreboard has had time to converge.
	LateFraction float64
}

// Enabled reports whether the byzantine layer is active.
func (b ByzantineConfig) Enabled() bool { return b.HonestBrokers+b.ByzantineBrokers > 0 }

// DefaultByzantineConfig is the golden byzantine mix: an
// honest-majority market (3 vs 2) where every byzantine sale after the
// first per site is a double-sell.
func DefaultByzantineConfig() ByzantineConfig {
	return ByzantineConfig{
		HonestBrokers:    3,
		ByzantineBrokers: 2,
		StockPerSite:     200,
		OversellFactor:   10,
		ReplayEvery:      1,
		Deposit:          10,
		SlashPenalty:     1,
		ScoreDecay:       trust.DefaultScoreDecay,
		// 0.35 means two consecutive frauds (0.5 → 0.4 → 0.32 under 0.8
		// decay) drop a fresh broker below the floor; 0.25 would need four
		// and lets a late first-sale-at-a-fresh-site slip through the mark.
		MinScore:     0.35,
		AttackEvery:  30 * time.Minute,
		ShopEvery:    4 * time.Minute,
		ShopAmount:   0.25,
		LateFraction: 0.75,
	}
}

// ByzantineStats is the byzantine section of a chaos Report.
type ByzantineStats struct {
	HonestBrokers, ByzBrokers int
	// ByzRedeemsLate / MarketRedeemsLate count successful market redeems
	// after the LateFraction mark; ByzShareLate is their ratio — the
	// convergence headline (byzantine market share → 0).
	ByzRedeemsLate, MarketRedeemsLate int
	ByzShareLate                      float64
	// CollateralHeld / CollateralSlashed / SlashEvents aggregate the site
	// banks at the end of the run.
	CollateralHeld, CollateralSlashed float64
	SlashEvents                       int
	// ReplayAttempts/Rejected and ForgeAttempts/Rejected count the attack
	// ticker's direct assaults on site authorities. Every attempt must be
	// rejected; acceptance files a violation.
	ReplayAttempts, ReplayRejected int
	ForgeAttempts, ForgeRejected   int
	// ShopBuys / ShopFails count the market exerciser's probe purchases.
	ShopBuys, ShopFails int
	// Scores is the final scoreboard, sorted by broker name.
	Scores []trust.BrokerScore
	// TrustReportErrs counts scoreboard feeding failures at the manager.
	TrustReportErrs int
}

// byzRun holds the byzantine layer's mutable run state. It hangs off
// chaosRun.byz, so it is reachable from the engine snapshot root and
// rewinds with the rest of the scenario on fork.
type byzRun struct {
	cfg    ByzantineConfig
	scores *trust.Scoreboard
	ex     *broker.Exchange
	banks  []*trust.Bank

	honest []*sharp.Agent
	byz    []*adversary.OversellBroker

	attacker     *identity.Principal
	attackSerial uint64
	attackNext   int
	attackTicker *sim.Ticker

	shopper    *identity.Principal
	shopNext   int
	shopTicker *sim.Ticker
	// ShopBuys / ShopFails count probe purchases that did / did not
	// convert into leases through any seller; ReportErrs counts
	// scoreboard feeding failures from the exerciser.
	ShopBuys, ShopFails int
	ReportErrs          int

	// okAtMark snapshots per-seller successful redeems at the
	// LateFraction mark; sellerNames fixes the deterministic iteration
	// order (honest first, then byzantine, in creation order).
	sellerNames []string
	byzSet      map[string]bool
	okAtMark    map[string]int
	marked      bool

	// ReplayAttempts etc. mirror ByzantineStats' attack counters.
	ReplayAttempts, ReplayRejected int
	ForgeAttempts, ForgeRejected   int
	// AttackSkips counts ticks that found no live site or no stock.
	AttackSkips int
}

// newByzRun builds the market: scoreboard, per-site collateral banks,
// honest and byzantine sellers stocked at every site, and the exchange,
// which it installs on the federation's deployer. Called from
// newChaosRun after the house agent is stocked and before the service
// manager starts, so the very first deploy already buys on the market.
func newByzRun(f *core.Federation, cfg ByzantineConfig, stockUntil time.Duration) *byzRun {
	b := &byzRun{
		cfg:      cfg,
		scores:   trust.NewScoreboard(cfg.ScoreDecay),
		byzSet:   make(map[string]bool),
		okAtMark: make(map[string]int),
		attacker: identity.NewPrincipal("byz-client", f.Rng),
		shopper:  identity.NewPrincipal("market-probe", f.Rng),
	}
	sites := f.JoinedSites()
	for _, s := range sites {
		if s.Runtime == nil {
			continue
		}
		s.Runtime.Bank = trust.NewBank(s.Spec.Name)
		b.banks = append(b.banks, s.Runtime.Bank)
	}
	b.ex = broker.NewExchange(f.Eng.ForkRand(), b.scores)
	b.ex.SlashPenalty = cfg.SlashPenalty
	b.ex.MinScore = cfg.MinScore

	for i := 0; i < cfg.HonestBrokers; i++ {
		ag := sharp.NewAgent(identity.NewPrincipal(fmt.Sprintf("honest-%02d", i), f.Rng))
		for _, s := range sites {
			if s.Runtime == nil {
				continue
			}
			tk, err := s.Runtime.Authority.IssueTicket(ag.Name, ag.Key(), capability.CPU, cfg.StockPerSite, 0, stockUntil)
			if err != nil {
				panic(fmt.Sprintf("faultlab: stocking honest broker: %v", err))
			}
			if err := ag.Acquire(tk); err != nil {
				panic(fmt.Sprintf("faultlab: honest broker acquire: %v", err))
			}
			if err := s.Runtime.Bank.Deposit(ag.Name, cfg.Deposit); err != nil {
				panic(fmt.Sprintf("faultlab: honest deposit: %v", err))
			}
		}
		b.honest = append(b.honest, ag)
		b.ex.AddSeller(ag)
		b.sellerNames = append(b.sellerNames, ag.SellerName())
	}
	for i := 0; i < cfg.ByzantineBrokers; i++ {
		ob := adversary.NewOversellBroker(identity.NewPrincipal(fmt.Sprintf("byz-%02d", i), f.Rng),
			cfg.OversellFactor, cfg.ReplayEvery)
		for _, s := range sites {
			if s.Runtime == nil {
				continue
			}
			tk, err := s.Runtime.Authority.IssueTicket(ob.SellerName(), ob.Key(), capability.CPU, cfg.StockPerSite, 0, stockUntil)
			if err != nil {
				panic(fmt.Sprintf("faultlab: stocking byz broker: %v", err))
			}
			if err := ob.Acquire(tk); err != nil {
				panic(fmt.Sprintf("faultlab: byz broker acquire: %v", err))
			}
			if err := s.Runtime.Bank.Deposit(ob.SellerName(), cfg.Deposit); err != nil {
				panic(fmt.Sprintf("faultlab: byz deposit: %v", err))
			}
		}
		b.byz = append(b.byz, ob)
		b.byzSet[ob.SellerName()] = true
		b.ex.AddSeller(ob)
		b.sellerNames = append(b.sellerNames, ob.SellerName())
	}
	f.Deployer.Exchange = b.ex
	return b
}

// arm starts the market exerciser and attack tickers and plants the
// late-share mark.
func (b *byzRun) arm(c *chaosRun) {
	if b.cfg.ShopEvery > 0 {
		b.shopTicker = c.f.Eng.NewTicker(b.cfg.ShopEvery, func() { b.shop(c) })
	}
	if b.cfg.AttackEvery > 0 {
		b.attackTicker = c.f.Eng.NewTicker(b.cfg.AttackEvery, func() { b.attack(c) })
	}
	frac := b.cfg.LateFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.75
	}
	c.f.Eng.At(time.Duration(float64(c.end)*frac), func() { b.mark() })
}

// mark snapshots per-seller successful redeems for the late-share
// computation.
func (b *byzRun) mark() {
	for _, name := range b.sellerNames {
		b.okAtMark[name] = b.ex.Stats(name).RedeemOK
	}
	b.marked = true
}

// shop is one tick of the market exerciser: buy ShopAmount at the next
// live site on the exchange, score every seller outcome, and release
// the leases immediately — a probe purchase standing in for the
// federation's wider service-manager population. Byzantine double-sells
// surface here as fraudulent redeem failures: the seller is slashed and
// its score decays, which is the traffic that starves it out of the
// market.
func (b *byzRun) shop(c *chaosRun) {
	f := c.f
	sites := f.JoinedSites()
	for try := 0; try < len(sites); try++ {
		s := sites[b.shopNext%len(sites)]
		b.shopNext++
		if s.Runtime == nil || f.SiteDown(s.Spec.Name) {
			continue
		}
		now := f.Eng.Now()
		leases, outcomes, err := b.ex.Purchase(b.shopper.Name, b.shopper.Public(),
			s.Spec.Name, s.Runtime, capability.CPU, b.cfg.ShopAmount, now, now+time.Hour)
		for _, o := range outcomes {
			if rerr := b.scores.ReportOutcome(o.Seller, o.OK); rerr != nil {
				b.ReportErrs++
			}
		}
		if err != nil {
			b.ShopFails++
			return
		}
		b.ShopBuys++
		for _, l := range leases {
			s.Runtime.Authority.ReleaseLease(l)
		}
		return
	}
	b.ShopFails++
}

// attack is one tick of the client-side adversary: pick the next live
// site round-robin, buy real tickets from the house agent, then (1)
// redeem one, release the lease, and replay it — the replay cache must
// reject the second redeem; (2) throw the four forgery shapes at the
// authority — each must fail with its typed error. Any acceptance is
// recorded as a violation.
func (b *byzRun) attack(c *chaosRun) {
	f := c.f
	sites := f.JoinedSites()
	for try := 0; try < len(sites); try++ {
		s := sites[b.attackNext%len(sites)]
		b.attackNext++
		if s.Runtime == nil || f.SiteDown(s.Spec.Name) {
			continue
		}
		b.attackSite(c, s)
		return
	}
	b.AttackSkips++
}

func (b *byzRun) attackSite(c *chaosRun, s *core.Site) {
	f := c.f
	now := f.Eng.Now()
	site := s.Spec.Name
	buy := func() *sharp.Ticket {
		tks, err := f.Deployer.Agent.Sell(b.attacker.Name, b.attacker.Public(),
			site, capability.CPU, 0.25, now, now+time.Hour)
		if err != nil || len(tks) != 1 {
			return nil
		}
		return tks[0]
	}
	tk := buy()
	if tk == nil {
		b.AttackSkips++
		return
	}
	// Replay: redeem, release, redeem again.
	b.ReplayAttempts++
	lease, err := s.Runtime.Authority.Redeem(tk)
	if err == nil {
		s.Runtime.Authority.ReleaseLease(lease)
		if _, err := s.Runtime.Authority.Redeem(tk); errors.Is(err, sharp.ErrReplayed) {
			b.ReplayRejected++
		} else {
			c.record([]Violation{{
				Invariant: "byz-replay-accepted",
				Detail:    fmt.Sprintf("%s: replayed redeem at %v returned %v", site, now, err),
			}})
		}
	} else {
		// The honest redeem itself failed (skewed clock, expired window):
		// nothing was spent, so no replay is possible either.
		b.ReplayRejected++
	}
	// Forgeries, all derived from a second legitimately bought ticket.
	tk2 := buy()
	if tk2 == nil {
		b.AttackSkips++
		return
	}
	b.attackSerial++
	b.forge(c, s, adversary.WidenDelegation(tk2, b.attacker, 4, b.attackSerial),
		sharp.ErrAmountWidened, "widened delegation")
	b.forge(c, s, adversary.TamperAmount(tk2, 3), sharp.ErrBadSignature, "tampered amount")
	b.attackSerial++
	b.forge(c, s, adversary.SelfIssuedRoot(b.attacker, site, capability.CPU, 5, now, now+time.Hour, b.attackSerial),
		sharp.ErrBadChain, "self-issued root")
	b.forge(c, s, adversary.SpliceChains(tk2, tk), sharp.ErrBadChain, "spliced chain")
}

// forge presents one forged ticket and asserts the typed rejection.
func (b *byzRun) forge(c *chaosRun, s *core.Site, tk *sharp.Ticket, want error, kind string) {
	b.ForgeAttempts++
	if _, err := s.Runtime.Authority.Redeem(tk); errors.Is(err, want) {
		b.ForgeRejected++
	} else {
		c.record([]Violation{{
			Invariant: "byz-forgery-accepted",
			Detail:    fmt.Sprintf("%s: %s returned %v; want %v", s.Spec.Name, kind, err, want),
		}})
	}
}

// stats assembles the report section and summary rows after the run.
func (b *byzRun) stats(c *chaosRun, tbl *metrics.Table) *ByzantineStats {
	st := &ByzantineStats{
		HonestBrokers:   len(b.honest),
		ByzBrokers:      len(b.byz),
		ReplayAttempts:  b.ReplayAttempts,
		ReplayRejected:  b.ReplayRejected,
		ForgeAttempts:   b.ForgeAttempts,
		ForgeRejected:   b.ForgeRejected,
		ShopBuys:        b.ShopBuys,
		ShopFails:       b.ShopFails,
		Scores:          b.scores.Snapshot(),
		TrustReportErrs: c.mgr.TrustReportErrs + b.ReportErrs,
	}
	for _, name := range b.sellerNames {
		late := b.ex.Stats(name).RedeemOK - b.okAtMark[name]
		st.MarketRedeemsLate += late
		if b.byzSet[name] {
			st.ByzRedeemsLate += late
		}
	}
	if st.MarketRedeemsLate > 0 {
		st.ByzShareLate = float64(st.ByzRedeemsLate) / float64(st.MarketRedeemsLate)
	}
	for _, bank := range b.banks {
		st.CollateralHeld += bank.TotalHeld()
		st.CollateralSlashed += bank.TotalSlashed()
		st.SlashEvents += len(bank.Events())
	}
	tbl.AddRow("byz brokers", fmt.Sprintf("%d/%d", st.ByzBrokers, st.HonestBrokers+st.ByzBrokers))
	tbl.AddRow("market probes", fmt.Sprintf("%d ok, %d failed", st.ShopBuys, st.ShopFails))
	tbl.AddRow("byz late redeems", fmt.Sprintf("%d/%d", st.ByzRedeemsLate, st.MarketRedeemsLate))
	tbl.AddRow("byz late share", fmt.Sprintf("%.4f", st.ByzShareLate))
	tbl.AddRow("collateral held", fmt.Sprintf("%.1f", st.CollateralHeld))
	tbl.AddRow("collateral slashed", fmt.Sprintf("%.1f", st.CollateralSlashed))
	tbl.AddRow("slash events", st.SlashEvents)
	tbl.AddRow("replays rejected", fmt.Sprintf("%d/%d", st.ReplayRejected, st.ReplayAttempts))
	tbl.AddRow("forgeries rejected", fmt.Sprintf("%d/%d", st.ForgeRejected, st.ForgeAttempts))
	for _, sc := range st.Scores {
		tbl.AddRow("score "+sc.Broker, fmt.Sprintf("%.4f (%d)", sc.Score, sc.Reports))
	}
	return st
}

// DefaultByzantineChaosConfig is the golden byzantine scenario: the
// resilience kit on (renewing leases, breakers, reconcile loop) plus the
// default byzantine mix.
func DefaultByzantineChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Resilience = true
	cfg.Lease = 90 * time.Minute
	cfg.ReconcileEvery = 15 * time.Minute
	cfg.Byzantine = DefaultByzantineConfig()
	return cfg
}

// ByzantineSweepResult aggregates a byzantine seed sweep into the
// evidence table the golden test pins.
type ByzantineSweepResult struct {
	Runs       int
	ViolationN int
	// MaxByzShareLate is the worst per-seed late byzantine market share —
	// the convergence bound (≤ 5%) is checked against this.
	MaxByzShareLate float64
	// MeanAvailability averages honest service availability over seeds.
	MeanAvailability float64
	// TotalSlashed sums seized collateral over seeds.
	TotalSlashed float64
	// AttacksOK reports every replay and forgery attempt rejected, in
	// every seed.
	AttacksOK bool
	// First is the first violating report in sweep order, if any.
	First *Report

	availabilitySum float64
	// tbl is the per-seed evidence table, rendered once by String.
	tbl *metrics.Table
}

// OK is the sweep's acceptance gate: no violations, every attack
// rejected, and the byzantine brokers' late market share bounded by 5%.
func (r *ByzantineSweepResult) OK() bool {
	return r.ViolationN == 0 && r.AttacksOK && r.MaxByzShareLate <= 0.05
}

// NewByzantineSweepResult returns an empty aggregate ready for Add.
func NewByzantineSweepResult() *ByzantineSweepResult {
	return &ByzantineSweepResult{
		AttacksOK: true,
		tbl: metrics.NewTable("seed", "availability", "byz share", "slashed",
			"replays", "forgeries", "violations"),
	}
}

// Add folds one byzantine report into the aggregate. Reports must be
// added in seed order; internal/perf/chaos reduces through this method
// in that order, which keeps its output byte-identical at any worker
// count.
func (r *ByzantineSweepResult) Add(rep *Report) {
	bz := rep.Byzantine
	if bz == nil {
		bz = &ByzantineStats{}
	}
	r.Runs++
	r.ViolationN += len(rep.Violations)
	r.availabilitySum += rep.Availability
	r.MeanAvailability = r.availabilitySum / float64(r.Runs)
	if bz.ByzShareLate > r.MaxByzShareLate {
		r.MaxByzShareLate = bz.ByzShareLate
	}
	r.TotalSlashed += bz.CollateralSlashed
	if bz.ReplayRejected != bz.ReplayAttempts || bz.ForgeRejected != bz.ForgeAttempts {
		r.AttacksOK = false
	}
	if !rep.OK() && r.First == nil {
		r.First = rep
	}
	r.tbl.AddRow(rep.Seed,
		fmt.Sprintf("%.4f", rep.Availability),
		fmt.Sprintf("%.4f", bz.ByzShareLate),
		fmt.Sprintf("%.1f", bz.CollateralSlashed),
		fmt.Sprintf("%d/%d", bz.ReplayRejected, bz.ReplayAttempts),
		fmt.Sprintf("%d/%d", bz.ForgeRejected, bz.ForgeAttempts),
		len(rep.Violations))
}

// String renders the evidence table plus the aggregate verdict.
func (r *ByzantineSweepResult) String() string {
	var b strings.Builder
	b.WriteString(r.tbl.String())
	fmt.Fprintf(&b, "\nruns %d  violations %d  mean availability %.4f  max byz late share %.4f  slashed %.1f  attacks rejected %v\n",
		r.Runs, r.ViolationN, r.MeanAvailability, r.MaxByzShareLate, r.TotalSlashed, r.AttacksOK)
	if r.First != nil {
		fmt.Fprintf(&b, "first failure: %s\n", r.First.Repro())
	}
	return b.String()
}
