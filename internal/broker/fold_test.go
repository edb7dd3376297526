package broker

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/trust"
	"repro/internal/vm"
)

// The three purchase bodies Exchange.buy replaced, kept as the oracle
// for TestFoldMatchesReferenceBodies: the house-agent body of
// deploySite, deploySiteMarket and Exchange.Purchase as they stood
// before the fold, with the helpers they called (the span-annotating
// redeemAndBind, the three-argument slash) and DeploySlice's loop, which
// has to call the reference deploySite.

func refDeploySlice(d *Deployer, sliceName string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, sites []string) (*DeployResult, error) {
	var span obs.SpanContext
	if d.tr != nil {
		span = d.tr.Begin("broker.deploy",
			obs.String("slice", sliceName), obs.String("sm", sm.Name),
			obs.Float("cpu_per_site", cpuPerSite), obs.Int("sites", len(sites)))
	}
	restore := d.tr.EnterScope(span)
	defer restore()
	res := &DeployResult{
		Slice:  vm.NewSlice(sliceName),
		Leases: make(map[string][]*sharp.Lease),
	}
	for _, site := range sites {
		leases, err := refDeploySite(d, span, res, sliceName, sm, cpuPerSite, notBefore, notAfter, site)
		if err != nil {
			res.Failed = append(res.Failed, SiteFailure{Site: site, Err: err})
			continue
		}
		res.Deployed = append(res.Deployed, site)
		res.Leases[site] = leases
	}
	if len(res.Deployed) == 0 {
		d.FailedN++
		err := fmt.Errorf("%w: %w", ErrAllSitesFailed, res.Err())
		span.End(obs.Err(err))
		return res, err
	}
	if res.Degraded() {
		d.FailedN++
	} else {
		d.DeployedN++
	}
	span.End(obs.Int("vms", len(res.Deployed)), obs.Int("failed", len(res.Failed)))
	return res, nil
}

func refDeploySite(d *Deployer, parent obs.SpanContext, res *DeployResult, sliceName string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, site string) ([]*sharp.Lease, error) {
	slice := res.Slice
	var span obs.SpanContext
	if d.tr != nil {
		span = d.tr.BeginUnder(parent, "broker.deploy.site", obs.String("site", site))
	}
	restore := d.tr.EnterScope(span)
	defer restore()
	rt, ok := d.Sites[site]
	if !ok {
		err := fmt.Errorf("broker: unknown site %q", site)
		span.End(obs.Err(err))
		return nil, err
	}
	if d.Exchange != nil {
		leases, err := refDeploySiteMarket(d, span, res, rt, sliceName, sm, cpuPerSite, notBefore, notAfter, site)
		if err != nil {
			span.End(obs.Err(err))
			return nil, err
		}
		span.End()
		return leases, nil
	}
	var leases []*sharp.Lease
	var v *vm.VM
	fail := func(err error) ([]*sharp.Lease, error) {
		for _, l := range leases {
			rt.Authority.ReleaseLease(l)
		}
		if v != nil && v.State() == vm.Running {
			v.Stop()
		}
		span.End(obs.Err(err))
		return nil, err
	}
	if err := d.reachable(site); err != nil {
		span.End(obs.Err(err))
		return nil, err
	}
	d.Hops += 2 // buy request + ticket grant
	tickets, err := d.Agent.Sell(sm.Name, sm.Public(), site, capability.CPU, cpuPerSite, notBefore, notAfter)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrNoTickets, err))
	}
	v = vm.New(sliceName+"@"+site, rt.Node, rt.NM)
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
	span.End()
	return leases, nil
}

func refDeploySiteMarket(d *Deployer, span obs.SpanContext, res *DeployResult, rt *SiteRuntime, sliceName string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, site string) ([]*sharp.Lease, error) {
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
			x.stats[name].RedeemFail++
			res.Outcomes = append(res.Outcomes, SellerOutcome{Site: site, Seller: name, Err: err})
			lastErr = fmt.Errorf("%w: %v", ErrNoTickets, err)
			continue
		}
		leases, err := refRedeemAndBind(d, span, res.Slice, sliceName, site, rt, tickets)
		if err != nil {
			x.stats[name].RedeemFail++
			res.Outcomes = append(res.Outcomes, SellerOutcome{Site: site, Seller: name, Err: err})
			if fraudulent(err) {
				refSlash(x, rt.Bank, name, fmt.Sprintf("%s: %v", site, err))
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

func refRedeemAndBind(d *Deployer, span obs.SpanContext, slice *vm.Slice, sliceName, site string, rt *SiteRuntime, tickets []*sharp.Ticket) ([]*sharp.Lease, error) {
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

func refSlash(x *Exchange, bank *trust.Bank, seller, reason string) {
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

func refPurchase(x *Exchange, buyerName string, buyerKey ed25519.PublicKey, site string, rt *SiteRuntime, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) ([]*sharp.Lease, []SellerOutcome, error) {
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
				refSlash(x, rt.Bank, name, fmt.Sprintf("%s: %v", site, redeemErr))
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

// errRefused is what refusingSeller answers every buy request with.
var errRefused = errors.New("fold test: seller refuses to sell")

// refusingSeller claims all the inventory in the world and sells none:
// a failed outcome for the scoreboard, never slashable fraud.
type refusingSeller struct{}

func (refusingSeller) SellerName() string                                { return "refuser" }
func (refusingSeller) Inventory(string, capability.ResourceType) float64 { return 1e6 }
func (refusingSeller) Sell(string, ed25519.PublicKey, string, capability.ResourceType, float64, time.Duration, time.Duration) ([]*sharp.Ticket, error) {
	return nil, errRefused
}

// stocker is a seller that can take delivery of a root ticket.
type stocker interface {
	Seller
	Key() ed25519.PublicKey
	Acquire(*sharp.Ticket) error
}

var foldSites = []string{"A", "B", "C"}

// foldTwin is one of two identically seeded federations; ref says which
// bodies drive it. Everything below the purchase loop is shared
// production code, so the twins can only part ways in the loop.
type foldTwin struct {
	ref      bool
	eng      *sim.Engine
	tr       *obs.Tracer
	d        *Deployer
	x        *Exchange // nil on house-agent seeds
	scores   *trust.Scoreboard
	sm       *identity.Principal
	auths    map[string]*sharp.Authority
	down     map[string]bool
	stockers []stocker
	names    []string // every registered seller, registration order
	live     []*DeployResult
	seenSpan int
}

func newFoldTwin(t *testing.T, seed int64, ref bool) *foldTwin {
	t.Helper()
	market, banked := seed%2 == 1, seed%4 < 2
	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed * 31))
	tw := &foldTwin{ref: ref, eng: eng, tr: obs.NewTracer(eng),
		auths: make(map[string]*sharp.Authority), down: make(map[string]bool)}
	sites := make(map[string]*SiteRuntime)
	for _, s := range foldSites {
		cpu := map[capability.ResourceType]float64{capability.CPU: 6}
		nm := capability.NewNodeManager(s, eng, rng, cpu)
		node := silk.NewNode(eng, s, silk.NodeSpec{Cores: 8, MemBytes: 1 << 30, DiskBytes: 1 << 34, NetBps: 1e7, MaxFDs: 1024})
		auth := sharp.NewAuthority(eng, s, identity.NewPrincipal("auth@"+s, rng), nm, cpu)
		auth.SetOversellFactor(1000) // soft claims far past capacity: redeems conflict
		auth.SetTracer(tw.tr)
		tw.auths[s] = auth
		sites[s] = &SiteRuntime{Authority: auth, NM: nm, Node: node}
		if banked {
			sites[s].Bank = trust.NewBank(s)
		}
	}
	house := sharp.NewAgent(identity.NewPrincipal("house", rng))
	tw.d = &Deployer{Agent: house, Sites: sites, SiteDown: func(s string) bool { return tw.down[s] }}
	tw.d.SetTracer(tw.tr)
	if seed%3 != 0 {
		tw.d.Breakers = resilience.NewKit(eng, eng.ForkRand(), tw.tr).Breakers
	}
	if err := tw.d.Stock(6, 0, 100*time.Hour, foldSites...); err != nil {
		t.Fatal(err)
	}
	tw.stockers = []stocker{house}
	tw.sm = identity.NewPrincipal("sm", rng)
	if !market {
		return tw
	}
	tw.scores = trust.NewScoreboard(trust.DefaultScoreDecay)
	tw.x = NewExchange(eng.ForkRand(), tw.scores)
	tw.x.MinScore = 0.05
	tw.d.Exchange = tw.x
	honest := sharp.NewAgent(identity.NewPrincipal("honest", rng))
	byz := adversary.NewOversellBroker(identity.NewPrincipal("byz", rng), 10, 2)
	drained := sharp.NewAgent(identity.NewPrincipal("drained", rng))
	empty := sharp.NewAgent(identity.NewPrincipal("empty", rng))
	tw.stockers = append(tw.stockers, honest, byz, drained)
	for _, s := range []Seller{house, honest, byz, refusingSeller{}, drained, empty} {
		tw.x.AddSeller(s)
		tw.names = append(tw.names, s.SellerName())
		for _, site := range foldSites {
			if bank := sites[site].Bank; bank != nil {
				if err := bank.Deposit(s.SellerName(), 3); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, st := range tw.stockers[1:] {
		for _, site := range foldSites {
			tw.restock(t, st, site, 4)
		}
	}
	for _, site := range foldSites {
		if bank := sites[site].Bank; bank != nil {
			if _, err := bank.Slash("drained", bank.Held("drained"), "fold test drain"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tw
}

func (tw *foldTwin) restock(t *testing.T, st stocker, site string, amount float64) {
	t.Helper()
	now := tw.eng.Now()
	tk, err := tw.auths[site].IssueTicket(st.SellerName(), st.Key(), capability.CPU, amount, now, now+100*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Acquire(tk); err != nil {
		t.Fatal(err)
	}
}

// foldOp is one scripted step, drawn once and applied to both twins.
type foldOp struct {
	kind    int
	name    string
	sites   []string
	cpu     float64
	span    time.Duration
	site    string
	skew    time.Duration
	advance time.Duration
	pick    int
}

const (
	opDeploy = iota
	opDeployAtomic
	opPurchase
	opToggleDown
	opSkew
	opAdvance
	opTeardown
	opRestock
	opCollateral
)

func drawFoldOp(rng *rand.Rand, step int) foldOp {
	op := foldOp{name: fmt.Sprintf("svc%d", step), site: foldSites[rng.Intn(len(foldSites))], pick: rng.Intn(1 << 16)}
	op.kind = []int{opDeploy, opDeploy, opDeploy, opDeploy, opDeploy, opDeployAtomic, opPurchase, opPurchase,
		opToggleDown, opSkew, opAdvance, opTeardown, opTeardown, opRestock, opCollateral}[rng.Intn(15)]
	for _, s := range append(append([]string(nil), foldSites...), "nowhere") {
		if rng.Intn(3) > 0 {
			op.sites = append(op.sites, s)
		}
	}
	op.cpu = []float64{0.25, 0.5, 1, 1, 2, 5000}[rng.Intn(6)]
	op.span = time.Duration(1+rng.Intn(4)) * time.Hour
	op.skew = []time.Duration{0, 0, 200 * time.Hour, -time.Hour}[rng.Intn(4)]
	op.advance = time.Duration(1+rng.Intn(20)) * time.Minute
	return op
}

// foldStep is what one step produced, in a form two twins can compare.
type foldStep struct {
	Deployed []string
	Failed   []string
	Outcomes []string
	Leases   []string
	Err      string
}

func outcomeStrings(outcomes []SellerOutcome) []string {
	var out []string
	for _, o := range outcomes {
		out = append(out, fmt.Sprintf("%s/%s ok=%v err=%v", o.Site, o.Seller, o.OK, o.Err))
	}
	return out
}

func leaseStrings(leases []*sharp.Lease) []string {
	var out []string
	for _, l := range leases {
		out = append(out, fmt.Sprintf("%+v", *l))
	}
	return out
}

// foldCoverage counts the loop's branches the script reached.
type foldCoverage struct {
	houseOK, houseRedeemFail, houseRefused, failover, marketRefused, slashed, noSeller int
}

// deploy and purchase are the two entry points into the loop, through
// the production code or the reference bodies.
func (tw *foldTwin) deploy(name string, cpu float64, nb, na time.Duration, sites []string) (*DeployResult, error) {
	if tw.ref {
		return refDeploySlice(tw.d, name, tw.sm, cpu, nb, na, sites)
	}
	return tw.d.DeploySlice(name, tw.sm, cpu, nb, na, sites)
}

func (tw *foldTwin) purchase(site string, cpu float64, nb, na time.Duration) ([]*sharp.Lease, []SellerOutcome, error) {
	if tw.ref {
		return refPurchase(tw.x, tw.sm.Name, tw.sm.Public(), site, tw.d.Sites[site], capability.CPU, cpu, nb, na)
	}
	return tw.x.Purchase(tw.sm.Name, tw.sm.Public(), site, tw.d.Sites[site], capability.CPU, cpu, nb, na)
}

func (tw *foldTwin) apply(t *testing.T, op foldOp, cov *foldCoverage) foldStep {
	t.Helper()
	var st foldStep
	now := tw.eng.Now()
	switch op.kind {
	case opDeploy, opDeployAtomic:
		slashedBefore := 0
		if tw.x != nil {
			slashedBefore = tw.x.SlashN
		}
		res, err := tw.deploy(op.name, op.cpu, now, now+op.span, op.sites)
		st.Err = fmt.Sprint(err)
		st.Deployed = res.Deployed
		st.Outcomes = outcomeStrings(res.Outcomes)
		for _, f := range res.Failed {
			st.Failed = append(st.Failed, f.Site+": "+f.Err.Error())
			switch {
			case errors.Is(f.Err, ErrNoSellers):
				cov.noSeller++
			case tw.x == nil && errors.Is(f.Err, ErrNoTickets):
				cov.houseRefused++
			case tw.x == nil && (errors.Is(f.Err, sharp.ErrExpired) || errors.Is(f.Err, sharp.ErrConflict)):
				cov.houseRedeemFail++
			}
		}
		for _, site := range res.Deployed {
			st.Leases = append(st.Leases, leaseStrings(res.Leases[site])...)
			if tw.x == nil {
				cov.houseOK++
			}
		}
		for i, o := range res.Outcomes {
			if errors.Is(o.Err, errRefused) {
				cov.marketRefused++
			}
			if o.OK && i > 0 && res.Outcomes[i-1].Site == o.Site {
				cov.failover++
			}
			// As servicemgr.reportOutcomes does: the buyer scores what it saw.
			if err := tw.scores.ReportOutcome(o.Seller, o.OK); err != nil {
				t.Fatal(err)
			}
		}
		if tw.x != nil {
			cov.slashed += tw.x.SlashN - slashedBefore
		}
		if op.kind == opDeployAtomic && res.Degraded() {
			res.Slice.StopAll()
			for _, site := range res.Deployed {
				tw.d.ReleaseLeases(res.Leases[site])
			}
		} else {
			tw.live = append(tw.live, res)
		}
	case opPurchase:
		if tw.x == nil {
			break
		}
		leases, outcomes, err := tw.purchase(op.site, op.cpu, now, now+op.span)
		st.Err, st.Outcomes, st.Leases = fmt.Sprint(err), outcomeStrings(outcomes), leaseStrings(leases)
		if errors.Is(err, ErrNoSellers) {
			cov.noSeller++
		}
		for _, o := range outcomes {
			if err := tw.scores.ReportOutcome(o.Seller, o.OK); err != nil {
				t.Fatal(err)
			}
		}
		tw.d.ReleaseLeases(leases) // a market probe holds nothing
	case opToggleDown:
		tw.down[op.site] = !tw.down[op.site]
	case opSkew:
		tw.auths[op.site].SetClockSkew(op.skew)
	case opAdvance:
		tw.eng.RunUntil(now + op.advance)
	case opTeardown:
		if len(tw.live) == 0 {
			break
		}
		res := tw.live[0]
		tw.live = tw.live[1:]
		res.Slice.StopAll()
		for _, site := range res.Deployed {
			tw.d.ReleaseLeases(res.Leases[site])
		}
	case opRestock:
		tw.restock(t, tw.stockers[op.pick%len(tw.stockers)], op.site, 4)
	case opCollateral:
		bank := tw.d.Sites[op.site].Bank
		if bank == nil || tw.x == nil {
			break
		}
		name := tw.names[op.pick%len(tw.names)]
		if op.pick&1 == 0 {
			st.Err = fmt.Sprint(bank.Deposit(name, 2))
		} else if held := bank.Held(name); held > 0 {
			_, err := bank.Slash(name, held, "fold test drain")
			st.Err = fmt.Sprint(err)
		}
	}
	return st
}

// state is everything the purchase loop can move, rendered comparably.
// It consumes one draw of the exchange rng, on both twins alike.
func (tw *foldTwin) state() []string {
	out := []string{fmt.Sprintf("hops=%d deployed=%d failed=%d now=%v", tw.d.Hops, tw.d.DeployedN, tw.d.FailedN, tw.eng.Now())}
	if tw.x != nil {
		out = append(out, fmt.Sprintf("slash n=%d total=%v err=%d next=%v", tw.x.SlashN, tw.x.SlashTotal, tw.x.SlashErrN, tw.x.rng.Float64()))
		for _, name := range tw.names {
			out = append(out, fmt.Sprintf("%s stats=%+v score=%v", name, tw.x.Stats(name), tw.scores.Score(name)))
		}
	}
	for _, site := range foldSites {
		rt, a := tw.d.Sites[site], tw.auths[site]
		out = append(out, fmt.Sprintf("%s free=%v ok=%d conflict=%d replay=%d live=%d breaker=%s inventory=%v", site,
			rt.NM.Available(capability.CPU), a.RedeemOK, a.RedeemConflict, a.ReplayRejN, a.LiveLeases(),
			tw.d.Breakers.For(site).State(), tw.d.Inventory(site)))
		if rt.Bank == nil {
			continue
		}
		for _, name := range tw.names {
			out = append(out, fmt.Sprintf("%s/%s held=%v", site, name, rt.Bank.Held(name)))
		}
		out = append(out, fmt.Sprintf("%s slash events=%+v", site, rt.Bank.Events()))
	}
	return out
}

// newSpans returns the spans recorded since the last call. Annotate
// writes only here (WriteJSONL logs begin and end attributes), so this
// is where a house-path attempt annotated by mistake would show.
func (tw *foldTwin) newSpans() []obs.Span {
	var out []obs.Span
	all := tw.tr.Spans()
	for _, s := range all[tw.seenSpan:] {
		out = append(out, *s)
	}
	tw.seenSpan = len(all)
	return out
}

// TestFoldMatchesReferenceBodies: the fold changed the loop's shape,
// never its behaviour. Twin federations — one driven through the
// production loop, one through the three bodies it replaced — run the
// same seeded script of deploys, market probes, outages, clock skew,
// teardowns, restocks and collateral moves, and must agree after every
// step on everything the loop can reach: results, error text, hop and
// deploy counters, per-seller market history, collateral, scores, the
// exchange rng's next draw, and every span.
func TestFoldMatchesReferenceBodies(t *testing.T) {
	var cov foldCoverage
	for seed := int64(1); seed <= 20; seed++ {
		prod, ref := newFoldTwin(t, seed, false), newFoldTwin(t, seed, true)
		script := rand.New(rand.NewSource(seed * 7919))
		var refCov foldCoverage
		for step := 0; step < 240; step++ {
			op := drawFoldOp(script, step)
			got, want := prod.apply(t, op, &cov), ref.apply(t, op, &refCov)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d op %+v:\n loop %+v\n  ref %+v", seed, step, op, got, want)
			}
			if g, w := prod.state(), ref.state(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d op %+v: state differs:\n loop %q\n  ref %q", seed, step, op, g, w)
			}
			if g, w := prod.newSpans(), ref.newSpans(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d op %+v: spans differ:\n loop %+v\n  ref %+v", seed, step, op, g, w)
			}
		}
		var g, w bytes.Buffer
		if err := errors.Join(prod.tr.WriteJSONL(&g), ref.tr.WriteJSONL(&w)); err != nil {
			t.Fatal(err)
		}
		if g.Len() == 0 || !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("seed %d: WriteJSONL differs (%d vs %d bytes)", seed, g.Len(), w.Len())
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.houseOK == 0 || cov.houseRedeemFail == 0 || cov.houseRefused == 0 || cov.failover == 0 || cov.marketRefused == 0 || cov.slashed == 0 || cov.noSeller == 0 {
		t.Fatalf("the script missed a branch of the loop: %+v", cov)
	}
}
