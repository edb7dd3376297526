// datagrid walks the paper's §5 cooperation scenario end to end: a
// climate dataset is registered in a Giggle-style replica catalog, a
// GSI-authorized GridFTP transfer fetches it striped over a lossy WAN,
// and a PlanetLab overlay service (mTCP-style path selection + multipath
// pooling) is layered underneath to lift the throughput — "layering
// Globus on top of PlanetLab can significantly strengthen the data grid
// infrastructure." Each fetch resolves the logical name through the
// replica catalog and picks its replica (FetchBest).
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/datagrid"
	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

const fileBytes = 500e6 // a 500 MB climate-model output file

func buildWAN() (*sim.Engine, *simnet.Network) {
	eng := sim.NewEngine(23)
	net := simnet.New(eng)
	net.AddSite("NCAR", 0, 0)
	net.AddSite("CERN", 90, 0)
	net.AddSite("pl-princeton", 30, 20)
	net.AddSite("pl-cambridge", 70, 18)
	net.AddHost("storage.ncar", "NCAR", 1.25e7) // 100 Mb/s
	net.AddHost("compute.cern", "CERN", 1.25e7)
	net.AddHost("relay1", "pl-princeton", 1.25e7) // PlanetLab overlay nodes
	net.AddHost("relay2", "pl-cambridge", 1.25e7)
	net.SetLoss("NCAR", "CERN", 0.01) // congested transatlantic path
	return eng, net
}

func main() {
	eng, net := buildWAN()

	// PKI + site transfer policy (Globus layer).
	rng := eng.ForkRand()
	ca := identity.NewCA("DOEGrids", 1e6*time.Hour, rng)
	aliceP := identity.NewPrincipal("/O=Grid/CN=alice", rng)
	alice := identity.UserCredential(aliceP, ca.IssueUser(aliceP, 0, 1e5*time.Hour))
	gm := gsi.NewGridmap()
	gm.Map("/O=Grid/CN=alice", "climate001")
	svc := &datagrid.TransferService{
		Net:    net,
		Policy: &gsi.SitePolicy{Auth: &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(ca)}, Gridmap: gm},
	}

	// Replica catalog: the dataset lives at NCAR.
	lrc := datagrid.NewLRC("NCAR")
	lrc.Register("lfn://esg/climate/run42", datagrid.Replica{Host: "storage.ncar", Bytes: fileBytes})
	rli := datagrid.NewRLI()
	rli.Attach(lrc)
	reps, err := rli.Locate("lfn://esg/climate/run42")
	if err != nil {
		panic(err)
	}
	fmt.Printf("replica catalog: lfn://esg/climate/run42 -> %s (%.0f MB)\n\n", reps[0].Host, reps[0].Bytes/1e6)

	// The overlay's view of candidate paths.
	fmt.Println("overlay path estimates (storage.ncar -> compute.cern):")
	est := metrics.NewTable("path", "rtt", "loss", "predicted MB/s")
	for _, p := range datagrid.BestPaths(net, "storage.ncar", "compute.cern", []string{"relay1", "relay2"}, 3) {
		name := "direct"
		if len(p.Relays) > 0 {
			name = "via " + p.Relays[0]
		}
		est.AddRow(name, p.RTT.Round(time.Millisecond).String(), p.Loss, p.RateBps/1e6)
	}
	est.Render(os.Stdout)
	fmt.Println()

	// Three configurations of the same fetch.
	results := metrics.NewTable("configuration", "duration", "throughput MB/s")
	var mbps []float64
	run := func(name string, opts datagrid.TransferOpts) {
		e2, n2 := buildWAN()
		svc2 := &datagrid.TransferService{Net: n2, Policy: svc.Policy}
		var flow *simnet.Flow
		svc2.FetchBest(alice, rli, "lfn://esg/climate/run42", "compute.cern", opts, func(f *simnet.Flow, err error) {
			if err != nil {
				panic(err)
			}
			flow = f
		})
		e2.Run()
		results.AddRow(name, flow.Duration().Round(time.Second).String(), flow.ThroughputBps()/1e6)
		mbps = append(mbps, flow.ThroughputBps()/1e6)
	}
	run("single stream, direct", datagrid.TransferOpts{Streams: 1})
	run("striped x8, direct", datagrid.TransferOpts{Streams: 8})
	run("striped x8 + overlay multipath", datagrid.TransferOpts{Streams: 8, Relays: []string{"relay1", "relay2"}})
	results.Render(os.Stdout)
	fmt.Printf("\nshape (paper §5): striping beats single-stream on the lossy path: %v;\n", mbps[1] > mbps[0])
	fmt.Printf("the PlanetLab overlay lifts it further: %v\n", mbps[2] > mbps[1])
}
