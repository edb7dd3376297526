// agreements demonstrates the paper's §4.2.1 complementarity claim — "a
// capability is in fact an implied agreement" and WS-Agreement leaves
// "the enforcement mechanism on the provider side ... not specified" — by
// negotiating the same kind of compute agreement against three provider
// backends: PlanetLab capability minting, a Globus batch-queue advance
// reservation, and SHARP ticket+lease issuance (§6's recommendation).
// Each agreement then runs past its start and its end: a job claims the
// batch reservation when its window opens, one agreement is terminated,
// the others expire, and every backend gets its commitment back.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/agreement"
	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/identity"
	"repro/internal/rsl"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func main() {
	// One explicit seed drives the engine and every rand stream: rerun
	// with the same -seed and the output is byte-identical (the
	// determinism contract gridlint enforces — no global math/rand).
	seed := flag.Int64("seed", 31, "deterministic run seed for engine and rand streams")
	flag.Parse()
	eng := sim.NewEngine(*seed)
	net := simnet.New(eng)
	net.AddSite("consumer-site", 0, 0)
	net.AddSite("provider-site", 35, 10)
	net.AddHost("consumer", "consumer-site", 1e6)
	for _, h := range []string{"pl-node", "cluster", "sharp-site"} {
		net.AddHost(h, "provider-site", 1e7)
	}
	rng := rand.New(rand.NewSource(*seed))

	// Backend 1: PlanetLab capabilities.
	nmPL := capability.NewNodeManager("pl-node", eng, rng,
		map[capability.ResourceType]float64{capability.CPU: 4, capability.Network: 1e7})
	respPL := agreement.NewResponder(eng, net, "pl-node",
		&agreement.CapabilityEnforcement{Eng: eng, NM: nmPL})
	respPL.AddTemplate(agreement.Template{Name: "compute", Constraints: []agreement.TermConstraint{
		{Name: "cpu", Min: 0.1, Max: 4}}})

	// Backend 2: batch-queue advance reservation.
	bm := gram.NewBatchManager(eng, "pbs", 64)
	respBatch := agreement.NewResponder(eng, net, "cluster", &agreement.BatchEnforcement{BM: bm})
	respBatch.AddTemplate(agreement.Template{Name: "compute", Constraints: []agreement.TermConstraint{
		{Name: "slots", Min: 1, Max: 64},
		{Name: "start", Min: 0, Max: 1e9},
		{Name: "duration", Min: 60, Max: 864000}}})

	// Backend 3: SHARP ticket + lease.
	nmSharp := capability.NewNodeManager("sharp-site", eng, rng,
		map[capability.ResourceType]float64{capability.CPU: 8})
	auth := sharp.NewAuthority(eng, "sharp-site", identity.NewPrincipal("auth", rng), nmSharp,
		map[capability.ResourceType]float64{capability.CPU: 8})
	respSharp := agreement.NewResponder(eng, net, "sharp-site", &agreement.SharpEnforcement{
		Authority: auth, Holder: identity.NewPrincipal("responder", rng), Clock: eng})
	respSharp.AddTemplate(agreement.Template{Name: "compute", Constraints: []agreement.TermConstraint{
		{Name: "cpu", Min: 0.1, Max: 8}}})

	// The consumer reads each provider's templates, then offers to each.
	providers := []string{"pl-node", "cluster", "sharp-site"}
	for _, p := range providers {
		agreement.Templates(net, "consumer", p, time.Minute, func(ts []agreement.Template, err error) {
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-11s template %q bounds %d terms\n", p, ts[0].Name, len(ts[0].Constraints))
		})
	}
	eng.RunUntil(time.Second)
	fmt.Println()
	offers := []struct {
		provider string
		offer    agreement.Offer
	}{
		{"pl-node", agreement.Offer{Template: "compute",
			Terms: map[string]float64{"cpu": 2}, Lifetime: 4 * time.Hour, Initiator: "alice"}},
		{"cluster", agreement.Offer{Template: "compute",
			Terms: map[string]float64{"slots": 16, "start": 3600, "duration": 7200}, Lifetime: 4 * time.Hour, Initiator: "alice"}},
		{"sharp-site", agreement.Offer{Template: "compute",
			Terms: map[string]float64{"cpu": 6}, Lifetime: 4 * time.Hour, Initiator: "alice"}},
	}
	for _, o := range offers {
		o := o
		agreement.Create(net, "consumer", o.provider, o.offer, time.Minute,
			func(ack agreement.Ack, err error) {
				if err != nil {
					fmt.Printf("%-11s REJECTED: %v\n", o.provider, err)
					return
				}
				fmt.Printf("%-11s %s -> %v\n", o.provider, ack.ID, ack.State)
			})
	}
	eng.RunUntil(time.Minute)

	fmt.Println("\nprovider-side commitments:")
	fmt.Printf("  pl-node    free cpu: %.1f (2 committed by capability)\n", nmPL.Available(capability.CPU))
	fmt.Printf("  cluster    queue reservation admitted (16 slots, t+1h for 2h)\n")
	fmt.Printf("  sharp-site free cpu: %.1f (6 leased via ticket)\n", nmSharp.Available(capability.CPU))

	// Oversized renegotiation attempt fails atomically on the SHARP side.
	fmt.Println("\nrenegotiating sharp-site agreement 6 -> 8 cpu (only 2 free):")
	var sharpID string
	// The third created agreement on sharp-site is ag1 there.
	sharpID = "sharp-site/ag1"
	simnet.Request(net, "consumer", "sharp-site", agreement.SvcRenegotiate, agreement.RenegotiateRequest{
		ID: sharpID,
		Offer: agreement.Offer{Template: "compute",
			Terms: map[string]float64{"cpu": 8}, Lifetime: 4 * time.Hour},
	}, time.Minute, func(_ agreement.Ack, err error) {
		if err != nil {
			fmt.Printf("  refused (original stays observed): %v\n", err)
		} else {
			fmt.Println("  accepted")
		}
	})
	eng.RunUntil(2 * time.Minute)
	fmt.Printf("  sharp-site agreement state: %v, free cpu still %.1f\n",
		respSharp.Agreement(sharpID).State(), nmSharp.Available(capability.CPU))

	// A 16-slot job claims the cluster's reservation (the batch manager's
	// first, pbs-r1) and starts when its window opens at t+1h.
	req, err := rsl.Parse(`&(executable=/bin/wrf)(count=16)(maxWallTime=7200)(reservation=pbs-r1)`)
	if err != nil {
		panic(err)
	}
	r, err := req.Single()
	if err != nil {
		panic(err)
	}
	job := &gram.Job{ID: "wrf", Req: r, Spec: gram.JobSpec{ActualRun: 90 * time.Minute}}
	if err := bm.Submit(job); err != nil {
		panic(err)
	}
	eng.RunUntil(2 * time.Hour)
	fmt.Printf("\nat %v the reserved job is %v (started at %v)\n", eng.Now(), job.State(), job.Started)

	// The consumer terminates the capability agreement early; the other
	// two run to the end of their 4h lifetimes.
	simnet.Request(net, "consumer", "pl-node", agreement.SvcTerminate, "pl-node/ag1", time.Minute,
		func(a agreement.Ack, err error) {
			if err != nil {
				panic(err)
			}
			fmt.Printf("pl-node/ag1 terminated by the consumer: %v\n", a.State)
		})
	eng.RunUntil(5 * time.Hour)
	fmt.Printf("\nat %v:\n", eng.Now())
	ended := 0
	for _, id := range []string{"pl-node/ag1", "cluster/ag1", "sharp-site/ag1"} {
		host, _, _ := strings.Cut(id, "/")
		simnet.Request(net, "consumer", host, agreement.SvcStatus, id, time.Minute, func(a agreement.Ack, err error) {
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-15s %v\n", id, a.State)
			if a.State == agreement.Complete || a.State == agreement.Terminated {
				ended++
			}
		})
	}
	eng.RunUntil(eng.Now() + time.Minute)
	fmt.Printf("  pl-node free cpu %.1f, sharp-site free cpu %.1f, reserved job %v\n",
		nmPL.Available(capability.CPU), nmSharp.Available(capability.CPU), job.State())
	released := nmPL.Available(capability.CPU) == 4 && nmSharp.Available(capability.CPU) == 8
	fmt.Printf("agreements past their end: %d of 3 ended, commitments released: %v\n", ended, released)
}
