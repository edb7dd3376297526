// sharptrading runs the paper's Figure 2 over a simulated WAN, each arrow
// an RPC with its virtual latency, and then extends it into a small
// resource economy: three sites issue tickets to two competing SHARP
// agents (one conservative, one overselling 2x), service managers buy and
// redeem, and the run prints where the soft-claim conflicts land — the
// behaviour E9 sweeps, shown here as a narrated scenario.
package main

import (
	"crypto/ed25519"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/broker"
	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/metrics"
	"repro/internal/sharp"
	"repro/internal/silk"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vm"
)

func main() {
	// One explicit seed drives the engine and every principal's key
	// stream: rerun with the same -seed for a byte-identical economy
	// (the determinism contract gridlint enforces — no global math/rand).
	seed := flag.Int64("seed", 11, "deterministic run seed for engine and rand streams")
	flag.Parse()
	figure2OverTheWire(*seed)
	eng := sim.NewEngine(*seed)
	rng := rand.New(rand.NewSource(*seed))
	horizon := 4 * time.Hour

	// Three sites with 8 CPUs each; siteC oversells 2x.
	sites := map[string]*sharp.Authority{}
	for _, s := range []struct {
		name     string
		oversell float64
	}{{"siteA", 1}, {"siteB", 1}, {"siteC", 2}} {
		nm := capability.NewNodeManager(s.name, eng, rng,
			map[capability.ResourceType]float64{capability.CPU: 8})
		auth := sharp.NewAuthority(eng, s.name, identity.NewPrincipal("auth@"+s.name, rng), nm,
			map[capability.ResourceType]float64{capability.CPU: 8})
		auth.OversellFactor = s.oversell
		sites[s.name] = auth
	}

	// Two agents stock up from every site.
	agents := []*sharp.Agent{
		sharp.NewAgent(identity.NewPrincipal("agent-frugal", rng)),
		sharp.NewAgent(identity.NewPrincipal("agent-greedy", rng)),
	}
	for _, name := range []string{"siteA", "siteB", "siteC"} {
		auth := sites[name]
		for _, ag := range agents {
			// Each agent asks for 6 CPU per site; conservative sites can
			// satisfy only the first fully (8 total), the overseller both.
			for _, chunk := range []float64{4, 2} {
				tk, err := auth.IssueTicket(ag.Name, ag.Key(), capability.CPU, chunk, 0, horizon)
				if err != nil {
					fmt.Printf("  %s refuses %s %.0f cpu: %v\n", name, ag.Name, chunk, err)
					continue
				}
				if err := ag.Acquire(tk); err != nil {
					panic(err)
				}
			}
		}
	}
	fmt.Println()
	inv := metrics.NewTable("agent", "siteA stock", "siteB stock", "siteC stock")
	for _, ag := range agents {
		inv.AddRow(ag.Name,
			ag.Inventory("siteA", capability.CPU),
			ag.Inventory("siteB", capability.CPU),
			ag.Inventory("siteC", capability.CPU))
	}
	inv.Render(os.Stdout)
	fmt.Println()

	// Six service managers each buy 3 CPU at one site, round-robin over
	// agents and sites, then redeem immediately.
	outcome := metrics.NewTable("service manager", "agent", "site", "bought", "redeem")
	siteNames := []string{"siteA", "siteB", "siteC"}
	for i := 0; i < 6; i++ {
		sm := identity.NewPrincipal(fmt.Sprintf("sm-%d", i), rng)
		ag := agents[i%2]
		site := siteNames[i%3]
		tickets, err := ag.Sell(sm.Name, sm.Public(), site, capability.CPU, 3, 0, horizon)
		if err != nil {
			outcome.AddRow(sm.Name, ag.Name, site, "-", "no stock: "+trim(err))
			continue
		}
		status := "lease granted"
		for _, tk := range tickets {
			if _, err := sites[site].Redeem(tk); err != nil {
				status = "CONFLICT: " + trim(err)
			}
		}
		outcome.AddRow(sm.Name, ag.Name, site, 3, status)
	}
	outcome.Render(os.Stdout)

	fmt.Println()
	tally := metrics.NewTable("site", "issued", "redeemed ok", "conflicts")
	for _, name := range siteNames {
		a := sites[name]
		tally.AddRow(name, a.IssuedN, a.RedeemOK, a.RedeemConflict)
	}
	tally.Render(os.Stdout)
	fmt.Println("\nNote how siteC (oversell 2x) accepted every ticket request but")
	fmt.Println("pushed the scarcity to redeem time — tickets are soft claims.")
}

func trim(err error) string {
	s := err.Error()
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// figure2OverTheWire runs Figure 2 with the agent, the service manager
// and each site's authority on hosts of their own: steps 1–6 are RPCs
// through NetDeployer and the SHARP services, step 7 is site-local. A
// NetDeployer then builds a two-site slice in one call.
func figure2OverTheWire(seed int64) {
	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(eng)
	net.AddSite("broker", 0, 0)
	net.AddHost("agent", "broker", 1e7)
	net.AddSite("customer", 5, 30)
	net.AddHost("sm", "customer", 1e7)
	d := &broker.NetDeployer{
		Net: net, Host: "agent", Agent: sharp.NewAgent(identity.NewPrincipal("agent", rng)),
		AuthorityHost: map[string]string{}, SiteNodes: map[string]*broker.SiteRuntime{}, Timeout: time.Minute,
	}
	sites := []string{"siteA", "siteB"}
	keys := map[string]ed25519.PublicKey{} // the authority keys a holder pins
	for i, site := range sites {
		net.AddSite(site, float64(20+25*i), 10)
		net.AddHost("auth-"+site, site, 1e7)
		signer := identity.NewPrincipal("auth@"+site, rng)
		nm := capability.NewNodeManager(site+"/n0", eng, rng, map[capability.ResourceType]float64{capability.CPU: 4})
		auth := sharp.NewAuthority(eng, site, signer, nm, map[capability.ResourceType]float64{capability.CPU: 4})
		sharp.NewAuthorityService(net, "auth-"+site, auth)
		keys[site] = signer.Public()
		d.AuthorityHost[site] = "auth-" + site
		d.SiteNodes[site] = &broker.SiteRuntime{Authority: auth, NM: nm, Node: silk.NewNode(eng, site+"/n0", silk.DefaultPlanetLabNode())}
	}
	sharp.NewAgentService(net, "agent", d.Agent)
	sm := identity.NewPrincipal("service-manager", rng)

	arrows := metrics.NewTable("step", "from", "to", "action", "latency")
	nArrows := 0
	// rpc runs one call to its reply and adds its two arrows. A reply
	// flies the latency its request flew, so each takes half the round trip.
	rpc := func(req, rep [4]string, call func(done func(error))) {
		sent, back := eng.Now(), time.Duration(-1)
		call(func(err error) {
			if err != nil {
				panic(err)
			}
			back = eng.Now()
		})
		eng.RunUntil(sent + time.Minute)
		for _, a := range [][4]string{req, rep} {
			arrows.AddRow(a[0], a[1], a[2], a[3], ((back - sent) / 2).Round(time.Microsecond).String())
		}
		nArrows += 2
	}
	for i, site := range sites {
		n := string(rune('a' + i))
		rpc([4]string{"1" + n, "agent", site, "request ticket"}, [4]string{"2" + n, site, "agent", "grant ticket"},
			func(done func(error)) { d.StockOverNet(1, 0, time.Hour, []string{site}, done) })
	}
	var bought []*sharp.Ticket
	rpc([4]string{"3", sm.Name, "agent", "request ticket"}, [4]string{"4", "agent", sm.Name, "grant ticket"},
		func(done func(error)) {
			sharp.BuyOverNet(net, "sm", "agent", sharp.BuyRequest{BuyerName: sm.Name, BuyerKey: sm.Public(),
				Site: "siteA", Type: capability.CPU, Amount: 1, NotAfter: time.Hour}, time.Minute,
				func(tks []*sharp.Ticket, err error) { bought = tks; done(err) })
		})
	var leases []*sharp.Lease
	for _, tk := range bought {
		// The holder checks the chain against siteA's pinned key before
		// paying a round trip to redeem it.
		if err := tk.Verify(keys["siteA"], eng.Now()); err != nil {
			panic(err)
		}
		rpc([4]string{"5", sm.Name, "siteA", "redeem ticket"}, [4]string{"6", "siteA", sm.Name, "grant lease"},
			func(done func(error)) {
				sharp.RedeemOverNet(net, "sm", "auth-siteA", tk, time.Minute,
					func(l *sharp.Lease, err error) { leases = append(leases, l); done(err) })
			})
	}
	rt := d.SiteNodes["siteA"]
	v := vm.New("figure2-service", rt.Node, rt.NM)
	for _, l := range leases {
		if err := v.Bind(l.CapID); err != nil {
			panic(err)
		}
	}
	if err := v.Start(); err != nil {
		panic(err)
	}
	arrows.AddRow("7", sm.Name, "siteA", "instantiate service in virtual machine", "site-local")
	nArrows++
	arrows.Render(os.Stdout)
	fmt.Printf("figure 2 over the wire: %d arrows, %d lease, tickets verified by their holder\n", nArrows, len(leases))

	// The same steps for a two-site slice, as one NetDeployer call.
	begin := eng.Now()
	d.StockOverNet(1, 0, time.Hour, sites, func(err error) {
		if err != nil {
			panic(err)
		}
		d.DeploySliceOverNet("cdn", "sm", sm, 1, 0, time.Hour, sites, func(s *vm.Slice, err error) {
			if err != nil {
				panic(err)
			}
			fmt.Printf("NetDeployer: %d-site slice running after %v of RPCs\n\n", s.Running(), eng.Now()-begin)
		})
	})
	eng.RunUntil(begin + time.Minute)
}
