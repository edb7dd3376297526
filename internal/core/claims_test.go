package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/perf"
)

// The paper's claims as predicates, one per right-hand cell of
// EXPERIMENTS.md. Each reads the typed rows of its experiment and returns
// why the claim fails on them, or nil. The shape tests call the same
// predicates at their own seeds and grids.

// fig1Claim: PlanetLab leads on VO functionality, Globus on site autonomy,
// and only PlanetLab turns candidates away.
func fig1Claim(pts []Fig1Point) error {
	g, p := pts[0], pts[1]
	switch {
	case g.Stack != StackGlobus || p.Stack != StackPlanetLab:
		return fmt.Errorf("points %v, %v: want globus then planetlab", g.Stack, p.Stack)
	case !(p.Functionality > g.Functionality):
		return fmt.Errorf("functionality: planetlab %v <= globus %v", p.Functionality, g.Functionality)
	case !(g.Autonomy > p.Autonomy):
		return fmt.Errorf("autonomy: globus %v <= planetlab %v", g.Autonomy, p.Autonomy)
	case g.Participation != 1 || !(p.Participation < 1):
		return fmt.Errorf("participation: globus %v (want 1), planetlab %v (want < 1)", g.Participation, p.Participation)
	}
	return nil
}

// alphaClaim: the Figure-1 crossover. PlanetLab leads while sites cede
// everything (alpha < 0.3); from alpha 0.3 nobody joins it, while Globus
// keeps every site and degrades gently.
func alphaClaim(rows []AlphaRow) error {
	prevG := math.Inf(1)
	for i := 0; i+1 < len(rows); i += 2 {
		g, p := rows[i], rows[i+1]
		switch {
		case !(g.Effective > 0) || g.Effective > prevG:
			return fmt.Errorf("alpha %v: globus effective %v, want positive and at most %v", g.Alpha, g.Effective, prevG)
		case p.Alpha < 0.3 && !(p.Effective > g.Effective):
			return fmt.Errorf("alpha %v: planetlab effective %v <= globus %v", p.Alpha, p.Effective, g.Effective)
		case p.Alpha >= 0.3 && p.Effective != 0:
			return fmt.Errorf("alpha %v: planetlab effective %v, want 0", p.Alpha, p.Effective)
		}
		prevG = g.Effective
	}
	return nil
}

// figure2Claim: the SHARP exchange follows the paper's arrows and ends
// with the service running.
func figure2Claim(seed int64) error {
	res, err := Figure2(seed)
	if err != nil {
		return err
	}
	return ValidateFigure2(res)
}

// scaleClaim: per stack, registration traffic is linear in members,
// placement cost is flat, and staleness stays within the 2-minute refresh
// period at every size.
func scaleClaim(rows []ScaleRow) error {
	first := map[Stack]ScaleRow{}
	for _, r := range rows {
		f, ok := first[r.Stack]
		if !ok {
			first[r.Stack], f = r, r
		}
		switch {
		case r.RegPerCycle*f.Sites != f.RegPerCycle*r.Sites:
			return fmt.Errorf("%v: %d regs at %d sites vs %d at %d: not linear", r.Stack, r.RegPerCycle, r.Sites, f.RegPerCycle, f.Sites)
		case r.MsgsPerOp != f.MsgsPerOp:
			return fmt.Errorf("%v: %d msgs/op at %d sites vs %d at %d: not flat", r.Stack, r.MsgsPerOp, r.Sites, f.MsgsPerOp, f.Sites)
		case r.Staleness > 2*time.Minute:
			return fmt.Errorf("%v at %d sites: staleness %v beyond the refresh period", r.Stack, r.Sites, r.Staleness)
		}
	}
	return nil
}

// proxyClaim: the failure rate falls as lifetimes grow, and the combined
// cost is lowest at a lifetime of 8-12h.
func proxyClaim(rows []ProxyRow) error {
	best := rows[0]
	for i, r := range rows {
		if i > 0 && r.FailRate > rows[i-1].FailRate {
			return fmt.Errorf("failure rate rises %v -> %v from %v to %v", rows[i-1].FailRate, r.FailRate, rows[i-1].Lifetime, r.Lifetime)
		}
		if r.Cost < best.Cost {
			best = r
		}
	}
	if best.Lifetime < 8*time.Hour || best.Lifetime > 12*time.Hour {
		return fmt.Errorf("cost minimum %v at %v, want within 8-12h", best.Cost, best.Lifetime)
	}
	return nil
}

// delegationClaim: usage delegation succeeds at least as often as identity
// delegation at every churn, and strictly more often at the highest.
func delegationClaim(rows []DelegationRow) error {
	for i := 0; i+1 < len(rows); i += 2 {
		id, usage := rows[i], rows[i+1]
		if usage.SuccessRate < id.SuccessRate || i+2 == len(rows) && usage.SuccessRate == id.SuccessRate {
			return fmt.Errorf("churn %v: usage success %v vs identity %v", id.Churn, usage.SuccessRate, id.SuccessRate)
		}
	}
	return nil
}

// allocationClaim: FCFS port conflicts hit both disciplines alike;
// best-effort admits everyone and is fairer, reservations refuse some.
func allocationClaim(rows []AllocationRow) error {
	be, res := rows[0], rows[1]
	switch {
	case !(be.PortConflictRate > 0) || be.PortConflictRate != res.PortConflictRate:
		return fmt.Errorf("port conflicts: best-effort %v, reserved %v; want equal and positive", be.PortConflictRate, res.PortConflictRate)
	case be.AdmissionFailRate != 0 || !(res.AdmissionFailRate > 0):
		return fmt.Errorf("admission failures: best-effort %v (want 0), reserved %v (want > 0)", be.AdmissionFailRate, res.AdmissionFailRate)
	case !(be.Jain > res.Jain):
		return fmt.Errorf("jain: best-effort %v <= reserved %v", be.Jain, res.Jain)
	}
	return nil
}

// heteroClaim: the uniform interface (zero dialects, the first row) needs
// fewer translation ops per job than any dialect mix and loses no error
// fidelity.
func heteroClaim(rows []HeteroRow) error {
	uniform := rows[0]
	if uniform.Dialects != 0 || uniform.OpaqueErrors != 0 {
		return fmt.Errorf("uniform row %+v: want 0 dialects and no opaque errors", uniform)
	}
	for _, r := range rows[1:] {
		if !(uniform.OpsPerJob < r.OpsPerJob) {
			return fmt.Errorf("translate ops/job: uniform %v >= %v at %d dialects", uniform.OpsPerJob, r.OpsPerJob, r.Dialects)
		}
	}
	return nil
}

// transferClaim: on a lossy path every wider stripe beats the narrowest
// (a single stream in the default grid) and the multipath overlay beats
// the direct path; on a clean path the overlay changes nothing. Rows come
// in (direct, multipath) pairs, stripes ascending within each loss.
func transferClaim(rows []TransferRow) error {
	single := map[float64]float64{}
	for i := 0; i+1 < len(rows); i += 2 {
		direct, multi := rows[i], rows[i+1]
		if _, ok := single[direct.Loss]; !ok {
			single[direct.Loss] = direct.Throughput
		}
		switch {
		case direct.Loss == 0 && multi.Throughput != direct.Throughput:
			return fmt.Errorf("loss 0, %d streams: multipath %v != direct %v", direct.Streams, multi.Throughput, direct.Throughput)
		case direct.Loss > 0 && !(multi.Throughput > direct.Throughput):
			return fmt.Errorf("loss %v, %d streams: multipath %v <= direct %v", direct.Loss, direct.Streams, multi.Throughput, direct.Throughput)
		case direct.Loss > 0 && direct.Streams > 1 && !(direct.Throughput > single[direct.Loss]):
			return fmt.Errorf("loss %v: %d streams %v <= single stream %v", direct.Loss, direct.Streams, direct.Throughput, single[direct.Loss])
		}
	}
	return nil
}

// oversubClaim: conflicts appear only above factor 1, and utilization is
// min(factor, 1).
func oversubClaim(rows []OversubRow) error {
	for _, r := range rows {
		if (r.Conflicts > 0) != (r.Factor > 1) || math.Abs(r.Utilization-min(r.Factor, 1)) > 1e-9 {
			return fmt.Errorf("factor %v: %d conflicts, utilization %v", r.Factor, r.Conflicts, r.Utilization)
		}
	}
	return nil
}

// availClaim: service (any-up) availability rises with the points of
// presence k and co-allocation (all-up) availability falls.
func availClaim(rows []AvailRow) error {
	for i := 1; i < len(rows); i++ {
		if prev, r := rows[i-1], rows[i]; r.AnyUp < prev.AnyUp || r.AllUp > prev.AllUp {
			return fmt.Errorf("k %d -> %d: any-up %v -> %v, all-up %v -> %v", prev.K, r.K, prev.AnyUp, r.AnyUp, prev.AllUp, r.AllUp)
		}
	}
	return nil
}

// managedClaim: the managed service is degraded no longer than the static
// one, and it got there by redeploying.
func managedClaim(rows []ManagedRow) error {
	managed, static := rows[0], rows[1]
	if managed.Degraded > static.Degraded || managed.Redeploys == 0 {
		return fmt.Errorf("managed degraded %v with %d redeploys, static %v", managed.Degraded, managed.Redeploys, static.Degraded)
	}
	return nil
}

// backfillClaim: EASY backfill backfills, and neither lengthens mean wait
// nor lowers utilization against pure FCFS, which never backfills.
func backfillClaim(rows []BackfillRow) error {
	easy, fcfs := rows[0], rows[1]
	switch {
	case easy.Backfilled == 0 || fcfs.Backfilled != 0:
		return fmt.Errorf("backfilled: EASY %d (want > 0), FCFS %d (want 0)", easy.Backfilled, fcfs.Backfilled)
	case easy.MeanWait > fcfs.MeanWait:
		return fmt.Errorf("mean wait: EASY %v > FCFS %v", easy.MeanWait, fcfs.MeanWait)
	case easy.Utilization < fcfs.Utilization:
		return fmt.Errorf("utilization: EASY %v < FCFS %v", easy.Utilization, fcfs.Utilization)
	}
	return nil
}

// poolingClaim: pooled multipath beats a static split.
func poolingClaim(rows []PoolingRow) error {
	if static, pooled := rows[0], rows[1]; !(pooled.Throughput > static.Throughput) {
		return fmt.Errorf("pooled %v MB/s <= static %v MB/s", pooled.Throughput, static.Throughput)
	}
	return nil
}

// refreshClaim: freshness is bought with traffic. Staleness grows with
// the refresh period and stays within it (plus propagation), while
// registration traffic falls.
func refreshClaim(rows []RefreshRow) error {
	for i, r := range rows {
		if r.Staleness > r.Period+time.Minute {
			return fmt.Errorf("period %v: staleness %v", r.Period, r.Staleness)
		}
		if i == 0 {
			continue
		}
		if prev := rows[i-1]; r.Staleness <= prev.Staleness || r.MsgsPerHour >= prev.MsgsPerHour {
			return fmt.Errorf("period %v -> %v: staleness %v -> %v, msgs/hour %v -> %v",
				prev.Period, r.Period, prev.Staleness, r.Staleness, prev.MsgsPerHour, r.MsgsPerHour)
		}
	}
	return nil
}

// claimAt binds pred to e's rows: at the default grid, which
// results_all.txt prints, when full is set, and at tally otherwise.
func claimAt[G, R any](e Experiment[G, R], tally G, pred func([]R) error) func(seed int64, full bool) error {
	return func(seed int64, full bool) error {
		g := tally
		if full {
			g = e.Grid
		}
		return pred(e.Run(seed, g, 1))
	}
}

// paperClaims binds each claim to its experiment and to the grid its seed
// tally runs at: the default grid where one run takes a few milliseconds,
// and otherwise a smaller one (fewer sites, jobs, operations, grid points,
// a shorter horizon) so that the whole test costs under 4 s of CPU.
var paperClaims = []struct {
	name  string
	holds func(seed int64, full bool) error
}{
	{"F1 ordering on both axes", claimAt(F1, F1.Grid, fig1Claim)},
	{"F1 alpha-sweep crossover", claimAt(F1Sweep, F1Sweep.Grid, alphaClaim)},
	{"F2 step trace", func(seed int64, _ bool) error { return figure2Claim(seed) }},
	{"E3 linear traffic, flat cost", claimAt(E3, []int{10, 50}, scaleClaim)},
	{"E4 cost minimum in 8-12h", claimAt(E4, ProxyGrid{Lifetimes: []time.Duration{4 * time.Hour, 8 * time.Hour, 16 * time.Hour}, Jobs: 100}, proxyClaim)},
	{"E5 usage >= identity", claimAt(E5, DelegationGrid{Sites: 10, Ops: 20, Churns: []float64{0.9}}, delegationClaim)},
	{"E6 FCFS ports, fairer best-effort", claimAt(E6, E6.Grid, allocationClaim)},
	{"E7 uniform API cheapest", claimAt(E7, HeteroGrid{Dialects: E7.Grid.Dialects, Jobs: 100}, heteroClaim)},
	{"E8 striping and overlay", claimAt(E8, TransferGrid{Bytes: 1e9, Losses: []float64{0, 0.01}, Stripes: []int{1, 4, 16}}, transferClaim)},
	{"E9 conflicts only above 1", claimAt(E9, []float64{0.5, 1, 2}, oversubClaim)},
	{"E10 any-up rises, all-up falls", claimAt(E10, E10.Grid, availClaim)},
	{"E11 managed >= static", claimAt(E11, 30*24*time.Hour, managedClaim)},
	{"A1 backfill helps", claimAt(A1, BackfillGrid{Slots: 16, Jobs: 120}, backfillClaim)},
	{"A2 pooling helps", claimAt(A2, A2.Grid, poolingClaim)},
	{"A3 freshness costs traffic", claimAt(A3, A3.Grid, refreshClaim)},
}

// TestPaperClaims holds every claim at seed 42 on the default grid, which
// EXPERIMENTS.md reports, and tallies how many of seeds 1-20 each claim
// holds at on its tally grid. A claim below 20/20 is a finding for
// EXPERIMENTS.md, not a failure.
func TestPaperClaims(t *testing.T) {
	const seeds = 20
	// Index 0 of each claim's block is seed 42; 1..seeds are seeds 1..20.
	errs := make([]error, len(paperClaims)*(seeds+1))
	perf.ForEach(len(errs), 0, func(i int) {
		seed, full := int64(i%(seeds+1)), false
		if seed == 0 {
			seed, full = 42, true
		}
		errs[i] = paperClaims[i/(seeds+1)].holds(seed, full)
	})
	for c, claim := range paperClaims {
		block := errs[c*(seeds+1) : (c+1)*(seeds+1)]
		if block[0] != nil {
			t.Errorf("%s at seed 42: %v", claim.name, block[0])
		}
		held := 0
		for s, err := range block[1:] {
			if err == nil {
				held++
			} else {
				t.Logf("%s fails at seed %d: %v", claim.name, s+1, err)
			}
		}
		t.Logf("%-36s %2d/%d seeds", claim.name, held, seeds)
	}
}
