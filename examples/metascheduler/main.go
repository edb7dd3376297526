// metascheduler demonstrates the Globus-side VO scheduling path of
// §4.2.2: a user delegates a proxy to a matchmaker broker, which
// discovers clusters through MDS, submits with the user's identity,
// retries around a site that blacklists her, and runs a DUROC
// all-or-nothing co-allocation, including the abort path. A member of a
// community with no gridmap entry is then admitted on a CAS assertion
// (Keahey & Welch's fine-grained authorization for GRAM), and the
// delegated proxy, once revoked, is refused at every site.
package main

import (
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/simnet"
)

func main() {
	specs := []core.SiteSpec{
		{Name: "ncsa", X: 10, Y: 0, ClusterSlots: 32, Policy: core.GlobusSitePolicy(true, true)},
		{Name: "sdsc", X: 45, Y: 10, ClusterSlots: 16, Policy: core.GlobusSitePolicy(true, true)},
		{Name: "anl", X: 12, Y: 3, ClusterSlots: 64, Policy: core.GlobusSitePolicy(false, true)},
	}
	f := core.Build(core.StackGlobus, core.Config{Seed: 99}, specs)
	user := f.User("/O=Grid/CN=alice")
	proxy, err := user.Delegate("alice/proxy-12h", f.Eng.Now(), 12*time.Hour, nil, f.Rng)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delegated %s (subject resolves to %q)\n\n", "alice/proxy-12h", "/O=Grid/CN=alice")

	// 1. Plain brokered placement.
	submit := func(note, rsl string, filters []mds.Filter) {
		f.Matchmaker.SubmitJob(proxy, gram.JobSpec{RSL: rsl, ActualRun: 30 * time.Minute}, filters,
			func(p broker.Placement, err error) {
				if err != nil {
					fmt.Printf("%-28s FAILED: %v\n", note, err)
					return
				}
				fmt.Printf("%-28s placed at %s as %s\n", note, p.Gatekeeper, p.JobID)
			})
		f.Eng.RunUntil(f.Eng.Now() + 2*time.Minute)
	}
	submit("32-way hour job:", `&(executable=/bin/cactus)(count=32)(maxWallTime=3600)`, nil)
	submit("job needing >=60 cpus:", `&(executable=/bin/big)(count=60)(maxWallTime=3600)`,
		[]mds.Filter{{Attr: "cpus", Op: mds.FGe, Value: "60"}})

	// 2. A site turns hostile mid-campaign; the broker routes around it.
	for _, s := range f.JoinedSites() {
		if s.Spec.Name == "ncsa" {
			s.Gridmap.Blacklist("/O=Grid/CN=alice")
		}
	}
	fmt.Println("\nncsa blacklists alice; resubmitting:")
	submit("16-way job after churn:", `&(executable=/bin/app)(count=16)(maxWallTime=600)`, nil)
	fmt.Printf("broker hops so far: %d, placements: %d, held proxies: %d\n",
		f.Matchmaker.Hops, f.Matchmaker.PlacedN, len(f.Matchmaker.HeldProxies()))

	// 3. DUROC co-allocation: succeeds across two friendly sites, then
	// aborts atomically when one leg includes the hostile site.
	var gks []string
	for _, s := range f.JoinedSites() {
		gks = append(gks, s.Host)
	}
	co := func(note string, hosts []string) {
		parts := make([]broker.Part, len(hosts))
		for i, h := range hosts {
			parts[i] = broker.Part{Gatekeeper: h, Spec: gram.JobSpec{
				RSL: `&(executable=/bin/coupled)(count=8)(maxWallTime=1800)`, ActualRun: 20 * time.Minute}}
		}
		f.CoAlloc.CoAllocate(proxy, parts, func(ps []broker.Placement, err error) {
			if err != nil {
				fmt.Printf("%-28s aborted: %v\n", note, err)
				return
			}
			fmt.Printf("%-28s %d parts running\n", note, len(ps))
		})
		f.Eng.RunUntil(f.Eng.Now() + 2*time.Minute)
	}
	fmt.Println("\nDUROC co-allocation:")
	co("sdsc + anl:", []string{"gk-sdsc", "gk-anl"})
	co("sdsc + ncsa (blacklisted):", []string{"gk-sdsc", "gk-ncsa"})
	fmt.Printf("co-allocations: %d ok, %d aborted\n", f.CoAlloc.CoAllocN, f.CoAlloc.AbortN)

	// 4. CAS: bob is in no gridmap, but the climate community vouches
	// for his submission to anl, and anl pins the community's key.
	const bobDN = "/O=Grid/CN=bob"
	cas := gsi.NewCAS("climate", f.Rng)
	cas.AddMember(bobDN)
	cas.Grant("submit", "gk-anl")
	bobKey := identity.NewPrincipal(bobDN, f.Rng)
	bob := identity.UserCredential(bobKey, f.CA.IssueUser(bobKey, 0, 24*time.Hour))
	assertion, err := cas.Issue(bobDN, "submit", "gk-anl", f.Eng.Now()+time.Hour)
	if err != nil {
		panic(err)
	}
	var anl *core.Site
	for _, s := range f.JoinedSites() {
		if s.Spec.Name == "anl" {
			anl = s
		}
	}
	anl.Policy.TrustedCAS = map[string]*identity.Principal{cas.Community: cas.Signer()}
	f.Net.AddHost("bob-desktop", "anl", 1e6)
	fmt.Println()
	spec := gram.JobSpec{RSL: `&(executable=/bin/ccsm)(count=4)(maxWallTime=3600)`, ActualRun: 30 * time.Minute}
	gram.Submit(f.Net, "bob-desktop", "gk-anl", gram.SubmitRequest{Cred: bob, Spec: spec},
		time.Minute, func(_ gram.SubmitReply, err error) {
			fmt.Printf("bob without an assertion: refused: %v\n", err)
		})
	gram.Submit(f.Net, "bob-desktop", "gk-anl", gram.SubmitRequest{Cred: bob, Assertion: assertion, Spec: spec},
		time.Minute, func(r gram.SubmitReply, err error) {
			if err != nil {
				panic(err)
			}
			simnet.Request(f.Net, "bob-desktop", "gk-anl", gram.SvcStatus, r.JobID, time.Minute,
				func(st gram.StatusReply, err error) {
					if err != nil {
						panic(err)
					}
					fmt.Printf("CAS assertion admitted %s at gk-anl as %s: job %s %v\n",
						bobDN, anl.Gatekeeper.Job(r.JobID).Spec.LocalAccount, r.JobID, st.State)
				})
		})
	f.Eng.RunUntil(f.Eng.Now() + 2*time.Minute)

	// 5. alice's proxy leaks: every site revokes it, and her next job is
	// refused wherever the broker tries.
	for _, s := range f.JoinedSites() {
		s.Policy.Auth.Verifier.Revoke(proxy.Chain[0])
	}
	fmt.Println("\nevery site revokes alice's proxy; resubmitting:")
	submit("16-way job after revocation:", `&(executable=/bin/app)(count=16)(maxWallTime=600)`, nil)
}
