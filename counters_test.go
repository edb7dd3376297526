package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultlab"
	"repro/internal/obs"
	"repro/internal/workload/cdn"
)

// counterLines returns the tracer's exported counter records as one
// "name value" line each, in export order.
func counterLines(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r struct {
			T    string `json:"t"`
			Name string `json:"name"`
			N    uint64 `json:"n"`
		}
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.T == "counter" {
			fmt.Fprintf(&b, "%s %d\n", r.Name, r.N)
		}
	}
	return b.String()
}

// TestTraceCountersPinned pins every counter name and value the traced
// scenarios export, so a change to how the components count can move
// neither the set of names nor any value.
func TestTraceCountersPinned(t *testing.T) {
	mixed, err := faultlab.ProfileByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	chaos := func(cfg faultlab.ChaosConfig, seed int64) func() *obs.Tracer {
		cfg.Trace = true
		return func() *obs.Tracer { return faultlab.RunChaos(seed, mixed, cfg).Tracer }
	}
	resilient := faultlab.DefaultChaosConfig()
	resilient.Resilience = true
	resilient.Lease = 90 * time.Minute
	resilient.ReconcileEvery = 15 * time.Minute

	cases := []struct {
		name string
		run  func() *obs.Tracer
		want string
	}{
		{"fig2", func() *obs.Tracer {
			_, tr, err := core.Figure2Traced(42)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}, `
broker.coalloc.cancels 0
broker.coalloc.cancels_lost 0
broker.deploys.failed 0
broker.deploys.ok 0
broker.renews.failed 0
broker.renews.ok 0
broker.sites.skipped 0
broker.tickets.stocked 0
net.call.refused 0
net.call.timeout 0
net.drop.host_down 0
net.drop.loss 0
net.drop.partition 0
net.flows.aborted 0
net.flows.done 0
net.flows.failed 0
net.flows.started 0
net.msgs_recv 4
net.msgs_sent 4
sharp.redeem.conflict 0
sharp.redeem.ok 1
sharp.redeem.rejected 0
sharp.renew.ok 0
sharp.renew.rejected 0
sharp.tickets.issued 2
sharp.tickets.rejected 0
`},
		{"delegation", func() *obs.Tracer {
			_, tr, err := core.TraceDelegation(42)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}, `
broker.coalloc.cancels 0
broker.coalloc.cancels_lost 0
broker.deploys.failed 0
broker.deploys.ok 3
broker.renews.failed 0
broker.renews.ok 0
broker.sites.skipped 0
broker.tickets.stocked 3
net.call.refused 0
net.call.timeout 0
net.drop.host_down 0
net.drop.loss 0
net.drop.partition 0
net.flows.aborted 0
net.flows.done 0
net.flows.failed 0
net.flows.started 0
net.msgs_recv 6
net.msgs_sent 6
sharp.redeem.conflict 0
sharp.redeem.ok 3
sharp.redeem.rejected 0
sharp.renew.ok 0
sharp.renew.rejected 0
sharp.tickets.issued 3
sharp.tickets.rejected 0
svc.lease_lapses 0
svc.redeploys 1
svc.site_failures 1
`},
		{"chaos", chaos(faultlab.DefaultChaosConfig(), 7), `
broker.coalloc.cancels 0
broker.coalloc.cancels_lost 0
broker.deploys.failed 0
broker.deploys.ok 3
broker.renews.failed 0
broker.renews.ok 0
broker.sites.skipped 0
broker.tickets.stocked 6
gram.crashes 3
gram.jobs.backfilled 0
gram.jobs.cancelled 0
gram.jobs.done 50
gram.jobs.failed 0
gram.jobs.started 50
gram.jobs.submitted 50
gram.jobs.wall_killed 0
net.call.refused 0
net.call.timeout 0
net.drop.host_down 114
net.drop.loss 1
net.drop.partition 0
net.flows.aborted 0
net.flows.done 0
net.flows.failed 0
net.flows.started 0
net.msgs_recv 4575
net.msgs_sent 4594
sharp.redeem.conflict 0
sharp.redeem.ok 3
sharp.redeem.rejected 0
sharp.renew.ok 0
sharp.renew.rejected 0
sharp.tickets.issued 6
sharp.tickets.rejected 0
svc.lease_lapses 0
svc.redeploys 0
svc.site_failures 0
`},
		{"chaos-resilient", chaos(resilient, 7), `
broker.coalloc.cancels 0
broker.coalloc.cancels_lost 0
broker.deploys.failed 0
broker.deploys.ok 3
broker.renews.failed 2
broker.renews.ok 15
broker.sites.skipped 0
broker.tickets.stocked 6
gram.crashes 3
gram.jobs.backfilled 0
gram.jobs.cancelled 0
gram.jobs.done 50
gram.jobs.failed 0
gram.jobs.started 50
gram.jobs.submitted 50
gram.jobs.wall_killed 0
net.call.refused 0
net.call.timeout 0
net.drop.host_down 114
net.drop.loss 1
net.drop.partition 0
net.flows.aborted 0
net.flows.done 0
net.flows.failed 0
net.flows.started 0
net.msgs_recv 4575
net.msgs_sent 4594
resilience.attempts 67
resilience.breaker.fastfail 0
resilience.breaker.recloses 0
resilience.breaker.trips 0
resilience.giveups 0
resilience.ok 65
resilience.renewals 15
resilience.renewals.abandoned 0
resilience.retries 2
sharp.redeem.conflict 0
sharp.redeem.ok 3
sharp.redeem.rejected 0
sharp.renew.ok 15
sharp.renew.rejected 2
sharp.tickets.issued 6
sharp.tickets.rejected 0
svc.lease_lapses 0
svc.redeploys 0
svc.site_failures 0
`},
		{"byzantine", chaos(faultlab.DefaultByzantineChaosConfig(), 1), `
broker.coalloc.cancels 0
broker.coalloc.cancels_lost 0
broker.deploys.failed 0
broker.deploys.ok 4
broker.renews.failed 0
broker.renews.ok 2
broker.sites.skipped 2
broker.tickets.stocked 6
gram.crashes 8
gram.jobs.backfilled 0
gram.jobs.cancelled 0
gram.jobs.done 45
gram.jobs.failed 0
gram.jobs.started 45
gram.jobs.submitted 45
gram.jobs.wall_killed 0
net.call.refused 0
net.call.timeout 0
net.drop.host_down 177
net.drop.loss 3
net.drop.partition 111
net.flows.aborted 0
net.flows.done 0
net.flows.failed 0
net.flows.started 0
net.msgs_recv 4404
net.msgs_sent 4425
resilience.attempts 62
resilience.breaker.fastfail 15
resilience.breaker.recloses 5
resilience.breaker.trips 8
resilience.giveups 5
resilience.ok 47
resilience.renewals 2
resilience.renewals.abandoned 0
resilience.retries 25
sharp.redeem.conflict 0
sharp.redeem.ok 146
sharp.redeem.rejected 95
sharp.renew.ok 2
sharp.renew.rejected 0
sharp.tickets.issued 36
sharp.tickets.rejected 0
svc.lease_lapses 0
svc.redeploys 1
svc.site_failures 1
`},
		{"cdn", func() *obs.Tracer {
			profiles := cdn.CurveProfiles()
			horizon := 10 * time.Minute
			sc := cdn.New(42, cdn.DefaultConfig(), profiles[len(profiles)-1], horizon)
			sc.Eng.RunUntil(horizon)
			return sc.Net.Tracer()
		}, `
cdn.fetch_failed 4
cdn.hits 232
cdn.misses 168
net.call.refused 0
net.call.timeout 0
net.drop.host_down 0
net.drop.loss 0
net.drop.partition 0
net.flows.aborted 0
net.flows.done 164
net.flows.failed 0
net.flows.started 164
net.msgs_recv 0
net.msgs_sent 0
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := counterLines(t, c.run()); got != strings.TrimPrefix(c.want, "\n") {
				t.Errorf("counters moved:\n--- got ---\n%s--- want ---\n%s", got, strings.TrimPrefix(c.want, "\n"))
			}
		})
	}
}
