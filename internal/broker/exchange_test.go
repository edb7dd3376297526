package broker

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/trust"
)

// marketFixture: two sites with banks, one honest agent stocked at
// both, a deployer with an exchange installed.
type marketFixture struct {
	eng    *sim.Engine
	rng    *rand.Rand
	d      *Deployer
	ex     *Exchange
	scores *trust.Scoreboard
	honest *sharp.Agent
	sm     *identity.Principal
}

func newMarketFixture(t *testing.T) *marketFixture {
	t.Helper()
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(11))
	sites := make(map[string]*SiteRuntime)
	for _, s := range []string{"A", "B"} {
		nm := capability.NewNodeManager(s, eng, rng, map[capability.ResourceType]float64{capability.CPU: 8})
		node := silk.NewNode(eng, s, silk.NodeSpec{Cores: 8, MemBytes: 1 << 30, DiskBytes: 1 << 34, NetBps: 1e7, MaxFDs: 1024})
		auth := sharp.NewAuthority(eng, s, identity.NewPrincipal("auth@"+s, rng), nm, map[capability.ResourceType]float64{capability.CPU: 8})
		auth.SetOversellFactor(100)
		sites[s] = &SiteRuntime{Authority: auth, NM: nm, Node: node, Bank: trust.NewBank(s)}
	}
	honest := sharp.NewAgent(identity.NewPrincipal("honest", rng))
	d := &Deployer{Agent: honest, Sites: sites}
	if err := d.Stock(8, 0, 10*time.Hour, "A", "B"); err != nil {
		t.Fatal(err)
	}
	scores := trust.NewScoreboard(trust.DefaultScoreDecay)
	ex := NewExchange(eng.ForkRand(), scores)
	ex.AddSeller(honest)
	d.Exchange = ex
	for _, s := range []string{"A", "B"} {
		if err := sites[s].Bank.Deposit("honest", 10); err != nil {
			t.Fatal(err)
		}
	}
	return &marketFixture{eng: eng, rng: rng, d: d, ex: ex, scores: scores,
		honest: honest, sm: identity.NewPrincipal("sm", rng)}
}

// addByz registers an oversell broker with stock and collateral at both
// sites.
func (f *marketFixture) addByz(t *testing.T, factor float64, replayEvery int) *adversary.OversellBroker {
	t.Helper()
	byz := adversary.NewOversellBroker(identity.NewPrincipal("byz", f.rng), factor, replayEvery)
	for s, rt := range f.d.Sites {
		tk, err := rt.Authority.IssueTicket(byz.SellerName(), byz.Key(), capability.CPU, 2, 0, 10*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := byz.Acquire(tk); err != nil {
			t.Fatal(err)
		}
		if err := rt.Bank.Deposit(byz.SellerName(), 5); err != nil {
			t.Fatalf("deposit at %s: %v", s, err)
		}
	}
	f.ex.AddSeller(byz)
	return byz
}

func TestMarketDeployHonestOnly(t *testing.T) {
	f := newMarketFixture(t)
	res, err := f.d.DeploySlice("svc", f.sm, 1, 0, time.Hour, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slice.Running() != 2 {
		t.Fatalf("Running = %d; want 2", res.Slice.Running())
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %+v; want 2", res.Outcomes)
	}
	for _, o := range res.Outcomes {
		if !o.OK || o.Seller != "honest" {
			t.Fatalf("outcome = %+v", o)
		}
	}
	if st := f.ex.Stats("honest"); st.RedeemOK != 2 || st.RedeemFail != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMarketFailsOverAndSlashesFraud(t *testing.T) {
	f := newMarketFixture(t)
	byz := f.addByz(t, 10, 1)
	// Drive the byz broker's score up so it wins the weighted pick, then
	// deploy repeatedly at one site: its first sale redeems (building
	// false trust is part of the attack), later replayed sales fail at
	// the replay cache, slash collateral, and fail over to the honest
	// seller — every deploy still succeeds.
	for i := 0; i < 6; i++ {
		if err := f.scores.ReportOutcome(byz.SellerName(), true); err != nil {
			t.Fatal(err)
		}
	}
	bank := f.d.Sites["A"].Bank
	deposited := bank.Deposited(byz.SellerName())
	fraudSeen := false
	for i := 0; i < 5; i++ {
		res, err := f.d.DeploySlice("svc", f.sm, 0.5, 0, time.Hour, []string{"A"})
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		if res.Slice.Running() != 1 {
			t.Fatalf("deploy %d: Running = %d", i, res.Slice.Running())
		}
		for _, o := range res.Outcomes {
			if o.Seller == byz.SellerName() && !o.OK && errors.Is(o.Err, sharp.ErrReplayed) {
				fraudSeen = true
			}
			if err := f.scores.ReportOutcome(o.Seller, o.OK); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !fraudSeen {
		t.Fatal("no replayed-sale outcome recorded against the byz broker")
	}
	if f.ex.SlashN == 0 || f.ex.SlashTotal <= 0 {
		t.Fatalf("SlashN = %d, SlashTotal = %v; want slashes", f.ex.SlashN, f.ex.SlashTotal)
	}
	if got := bank.Slashed(byz.SellerName()); got <= 0 {
		t.Fatalf("bank slashed = %v; want > 0", got)
	}
	if err := bank.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if bank.Deposited(byz.SellerName()) != deposited {
		t.Fatal("slashing changed the deposited total (conservation)")
	}
	if bank.Slashed("honest") != 0 {
		t.Fatal("honest seller was slashed")
	}
}

func TestMarketCollateralGate(t *testing.T) {
	f := newMarketFixture(t)
	byz := f.addByz(t, 10, 1)
	bank := f.d.Sites["A"].Bank
	// Drain the byz broker's collateral entirely: it becomes ineligible
	// at A no matter how good its announced inventory looks.
	if _, err := bank.Slash(byz.SellerName(), bank.Held(byz.SellerName()), "test drain"); err != nil {
		t.Fatal(err)
	}
	order := f.ex.rank("A", capability.CPU, 0.5, bank)
	if len(order) != 1 || order[0].SellerName() != "honest" {
		names := make([]string, len(order))
		for i, s := range order {
			names[i] = s.SellerName()
		}
		t.Fatalf("rank = %v; want [honest]", names)
	}
}

func TestMarketMinScoreFloor(t *testing.T) {
	f := newMarketFixture(t)
	byz := f.addByz(t, 10, 1)
	f.ex.MinScore = 0.25
	for i := 0; i < 10; i++ {
		if err := f.scores.ReportOutcome(byz.SellerName(), false); err != nil {
			t.Fatal(err)
		}
	}
	bank := f.d.Sites["A"].Bank
	order := f.ex.rank("A", capability.CPU, 0.5, bank)
	if len(order) != 1 || order[0].SellerName() != "honest" {
		t.Fatalf("rank kept %d sellers; want the floored honest-only list", len(order))
	}
	// Liveness: when every seller is below the floor, the floor yields
	// rather than starving the market.
	for i := 0; i < 10; i++ {
		if err := f.scores.ReportOutcome("honest", false); err != nil {
			t.Fatal(err)
		}
	}
	order = f.ex.rank("A", capability.CPU, 0.5, bank)
	if len(order) != 2 {
		t.Fatalf("rank starved the market below the floor: %d sellers", len(order))
	}
}

func TestMarketNoSellers(t *testing.T) {
	f := newMarketFixture(t)
	// Ask for more than anyone claims to have — or for an amount nobody
	// can have: "inventory < NaN" is false, so a NaN request used to rank
	// every seller, buy a NaN ticket and leave NaN stock behind.
	for _, amount := range []float64{100, math.NaN(), math.Inf(1), 0, -1} {
		_, err := f.d.DeploySlice("huge", f.sm, amount, 0, time.Hour, []string{"A"})
		if !errors.Is(err, ErrNoSellers) {
			t.Errorf("deploy %v CPU = %v; want ErrNoSellers", amount, err)
		}
		rt := f.d.Sites["A"]
		if _, _, err := f.ex.Purchase(f.sm.Name, f.sm.Public(), "A", rt, capability.CPU, amount, 0, time.Hour); !errors.Is(err, ErrNoSellers) {
			t.Errorf("purchase %v CPU = %v; want ErrNoSellers", amount, err)
		}
		// The house agent alone refuses the same request as a seller would.
		f.d.Exchange = nil
		if _, err := f.d.DeploySlice("huge", f.sm, amount, 0, time.Hour, []string{"A"}); !errors.Is(err, ErrNoTickets) {
			t.Errorf("house deploy %v CPU = %v; want ErrNoTickets", amount, err)
		}
		f.d.Exchange = f.ex
		if inv, free := f.honest.Inventory("A", capability.CPU), rt.NM.Available(capability.CPU); inv != 8 || free != 8 {
			t.Fatalf("after %v CPU: inventory %v, site free %v; want 8 and 8", amount, inv, free)
		}
	}
}

func TestMarketDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		eng := sim.NewEngine(42)
		rng := rand.New(rand.NewSource(11))
		sites := make(map[string]*SiteRuntime)
		nm := capability.NewNodeManager("A", eng, rng, map[capability.ResourceType]float64{capability.CPU: 8})
		node := silk.NewNode(eng, "A", silk.NodeSpec{Cores: 8, MemBytes: 1 << 30, DiskBytes: 1 << 34, NetBps: 1e7, MaxFDs: 1024})
		auth := sharp.NewAuthority(eng, "A", identity.NewPrincipal("auth@A", rng), nm, map[capability.ResourceType]float64{capability.CPU: 8})
		auth.SetOversellFactor(100)
		sites["A"] = &SiteRuntime{Authority: auth, NM: nm, Node: node, Bank: trust.NewBank("A")}
		scores := trust.NewScoreboard(trust.DefaultScoreDecay)
		ex := NewExchange(eng.ForkRand(), scores)
		d := &Deployer{Agent: sharp.NewAgent(identity.NewPrincipal("house", rng)), Sites: sites, Exchange: ex}
		sm := identity.NewPrincipal("sm", rng)
		for i := 0; i < 3; i++ {
			a := sharp.NewAgent(identity.NewPrincipal(fmt.Sprintf("seller-%d", i), rng))
			tk, _ := auth.IssueTicket(a.Name, a.Key(), capability.CPU, 2, 0, 10*time.Hour)
			_ = a.Acquire(tk)
			ex.AddSeller(a)
			_ = sites["A"].Bank.Deposit(a.Name, 5)
		}
		var picks []string
		for i := 0; i < 8; i++ {
			res, err := d.DeploySlice("svc", sm, 0.25, 0, time.Hour, []string{"A"})
			if err != nil {
				return []string{"err: " + err.Error()}
			}
			for _, o := range res.Outcomes {
				picks = append(picks, o.Seller)
				if err := scores.ReportOutcome(o.Seller, o.OK); err != nil {
					return []string{"err: " + err.Error()}
				}
			}
		}
		return picks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("pick counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
