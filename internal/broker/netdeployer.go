package broker

import (
	"errors"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/simnet"
	"repro/internal/vm"
)

// NetDeployer is the Deployer's wire-protocol twin: every SHARP step —
// ticket acquisition (Figure 2: 1,2), resale (3,4), and redemption (5,6)
// — is a real RPC over the simulated WAN, so slice setup pays measured
// round-trips and inherits loss, timeouts, and partitions. The paper's
// Figure 2 deliberately draws these as network arrows between
// organizations; this type is that diagram executable.
type NetDeployer struct {
	Net *simnet.Network
	// Host is the broker's own host (the agent runs here).
	Host  string
	Agent *sharp.Agent
	// AuthorityHost maps site name -> the host running its
	// sharp.AuthorityService.
	AuthorityHost map[string]string
	// SiteNodes maps site name -> local VM substrate (node manager and
	// silk node), used at bind time (step 7 is site-local).
	SiteNodes map[string]*SiteRuntime
	// Timeout bounds each RPC leg.
	Timeout time.Duration

	// SetupTime accumulates measured wall-clock (virtual) time spent in
	// deployment RPCs; DeployedN counts successful slices.
	SetupTime time.Duration
	DeployedN int
}

// ErrDeployFailed wraps any failed step of a networked deployment.
var ErrDeployFailed = errors.New("broker: networked deployment failed")

// StockOverNet acquires one CPU ticket per site into the agent, over the
// wire, and calls done with the first error (nil when all succeed).
func (d *NetDeployer) StockOverNet(amount float64, notBefore, notAfter time.Duration, sites []string, done func(error)) {
	remaining := len(sites)
	if remaining == 0 {
		done(nil)
		return
	}
	var firstErr error
	for _, site := range sites {
		authHost, ok := d.AuthorityHost[site]
		if !ok {
			remaining--
			if firstErr == nil {
				firstErr = errors.Join(ErrDeployFailed, errors.New("unknown site "+site))
			}
			continue
		}
		sharp.IssueOverNet(d.Net, d.Host, authHost, sharp.IssueRequest{
			HolderName: d.Agent.Name,
			HolderKey:  d.Agent.Key(),
			Type:       capability.CPU,
			Amount:     amount,
			NotBefore:  notBefore,
			NotAfter:   notAfter,
		}, d.Timeout, func(tk *sharp.Ticket, err error) {
			if err == nil {
				err = d.Agent.Acquire(tk)
			}
			if err != nil && firstErr == nil {
				firstErr = errors.Join(ErrDeployFailed, err)
			}
			remaining--
			if remaining == 0 {
				done(firstErr)
			}
		})
	}
	if remaining == 0 {
		done(firstErr)
	}
}

// DeploySliceOverNet builds a slice like Deployer.DeploySlice, but the
// service manager (running at smHost) buys tickets from the agent and
// redeems them at each site authority over the network. The callback
// receives the running slice or the first error (already-built VMs are
// torn down on failure).
func (d *NetDeployer) DeploySliceOverNet(sliceName, smHost string, sm *identity.Principal, cpuPerSite float64, notBefore, notAfter time.Duration, sites []string, done func(*vm.Slice, error)) {
	start := d.Net.Engine().Now()
	slice := vm.NewSlice(sliceName)
	var leases []struct {
		rt *SiteRuntime
		l  *sharp.Lease
	}
	fail := func(err error) {
		slice.StopAll()
		for _, x := range leases {
			x.rt.Authority.ReleaseLease(x.l)
		}
		done(nil, errors.Join(ErrDeployFailed, err))
	}

	var deployNext func(i int)
	deployNext = func(i int) {
		if i == len(sites) {
			d.SetupTime += d.Net.Engine().Now() - start
			d.DeployedN++
			done(slice, nil)
			return
		}
		site := sites[i]
		rt, ok := d.SiteNodes[site]
		authHost, ok2 := d.AuthorityHost[site]
		if !ok || !ok2 {
			fail(errors.New("unknown site " + site))
			return
		}
		// Steps 3/4: buy from the agent over the wire.
		sharp.BuyOverNet(d.Net, smHost, d.Host, sharp.BuyRequest{
			BuyerName: sm.Name,
			BuyerKey:  sm.Public(),
			Site:      site,
			Type:      capability.CPU,
			Amount:    cpuPerSite,
			NotBefore: notBefore,
			NotAfter:  notAfter,
		}, d.Timeout, func(tickets []*sharp.Ticket, err error) {
			if err != nil {
				fail(err)
				return
			}
			// Steps 5/6: redeem each ticket at the issuing authority.
			v := vm.New(sliceName+"@"+site, rt.Node, rt.NM)
			var redeemNext func(j int)
			redeemNext = func(j int) {
				if j == len(tickets) {
					// Step 7: instantiate.
					if err := v.Start(); err != nil {
						fail(err)
						return
					}
					if err := slice.Add(v); err != nil {
						fail(err)
						return
					}
					deployNext(i + 1)
					return
				}
				sharp.RedeemOverNet(d.Net, smHost, authHost, tickets[j], d.Timeout, func(lease *sharp.Lease, err error) {
					if err != nil {
						fail(err)
						return
					}
					leases = append(leases, struct {
						rt *SiteRuntime
						l  *sharp.Lease
					}{rt, lease})
					if err := v.Bind(lease.CapID); err != nil {
						fail(err)
						return
					}
					redeemNext(j + 1)
				})
			}
			redeemNext(0)
		})
	}
	deployNext(0)
}
