package core

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func testSpecs(n int, policy AutonomyPolicy) []SiteSpec {
	specs := make([]SiteSpec, n)
	for i := range specs {
		specs[i] = SiteSpec{
			Name: "s" + string(rune('a'+i)), X: float64(10 * (i + 1)), Y: 5,
			Nodes: 2, ClusterSlots: 8, Policy: policy,
		}
	}
	return specs
}

func TestAutonomyScores(t *testing.T) {
	if got := PlanetLabSitePolicy().Autonomy(); got != 0 {
		t.Errorf("PlanetLab member autonomy = %v, want 0", got)
	}
	if got := GlobusSitePolicy(false, false).Autonomy(); got != 1 {
		t.Errorf("max-autonomy Globus site = %v, want 1", got)
	}
	if got := GlobusSitePolicy(true, true).Autonomy(); got >= 1 || got <= 0.5 {
		t.Errorf("typical Globus site = %v, want in (0.5,1)", got)
	}
}

func TestGradedPolicyMonotone(t *testing.T) {
	prev := -1.0
	for alpha := 0.0; alpha <= 1.0; alpha += 0.05 {
		a := GradedPolicy(alpha).Autonomy()
		if a < prev {
			t.Fatalf("autonomy not monotone at alpha=%v: %v < %v", alpha, a, prev)
		}
		prev = a
	}
	if !GradedPolicy(0).AcceptsCentralControl() {
		t.Error("alpha=0 site refuses central control")
	}
	if GradedPolicy(1).AcceptsCentralControl() {
		t.Error("alpha=1 site accepts central control")
	}
}

func TestBuildPlanetLabRefusesAutonomousSites(t *testing.T) {
	specs := testSpecs(4, GlobusSitePolicy(true, true)) // retain controls
	f := Build(StackPlanetLab, Config{Seed: 1, StopPushers: true}, specs)
	if len(f.JoinedSites()) != 0 {
		t.Errorf("joined = %d, want 0 (sites refuse PlanetLab terms)", len(f.JoinedSites()))
	}
	if f.Participation() != 0 {
		t.Errorf("participation = %v", f.Participation())
	}
}

// joinedRef is the list JoinedSites filtered per call before the
// federation kept it: the Sites that joined, in build order.
func joinedRef(f *Federation) []*Site {
	var out []*Site
	for _, s := range f.Sites {
		if s.Joined {
			out = append(out, s)
		}
	}
	return out
}

func TestEachJoinedSiteMatchesFilter(t *testing.T) {
	specs := testSpecs(3, PlanetLabSitePolicy())
	specs[1].Policy = GlobusSitePolicy(true, true) // refuses PlanetLab's terms
	f := Build(StackPlanetLab, Config{Seed: 1, StopPushers: true}, specs)
	var got []*Site
	f.EachJoinedSite(func(s *Site) { got = append(got, s) })
	want := joinedRef(f)
	if len(want) != 2 || !slices.Equal(got, want) || !slices.Equal(f.JoinedSites(), want) {
		t.Errorf("EachJoinedSite visited %d sites, JoinedSites has %d, want %d in build order",
			len(got), len(f.JoinedSites()), len(want))
	}
}

func TestBuildGlobusAcceptsEveryone(t *testing.T) {
	specs := append(testSpecs(2, GlobusSitePolicy(true, true)), testSpecs(2, PlanetLabSitePolicy())[0])
	specs[2].Name = "sz"
	f := Build(StackGlobus, Config{Seed: 1, StopPushers: true}, specs)
	if len(f.JoinedSites()) != 3 {
		t.Errorf("joined = %d, want 3", len(f.JoinedSites()))
	}
	for _, s := range f.JoinedSites() {
		if s.Gatekeeper == nil || s.Batch == nil {
			t.Errorf("site %s missing Globus machinery", s.Spec.Name)
		}
		if s.Runtime != nil {
			t.Errorf("site %s has PlanetLab machinery under Globus build", s.Spec.Name)
		}
	}
}

func TestBuildHybridDegradesRefusers(t *testing.T) {
	specs := testSpecs(2, PlanetLabSitePolicy())
	specs = append(specs, SiteSpec{Name: "sx", X: 50, Y: 5, Nodes: 2, ClusterSlots: 8, Policy: GlobusSitePolicy(true, true)})
	f := Build(StackHybrid, Config{Seed: 1, StopPushers: true}, specs)
	if len(f.JoinedSites()) != 3 {
		t.Fatalf("joined = %d", len(f.JoinedSites()))
	}
	plCount := 0
	for _, s := range f.JoinedSites() {
		if s.Gatekeeper == nil {
			t.Errorf("hybrid site %s missing Globus side", s.Spec.Name)
		}
		if s.Runtime != nil {
			plCount++
		}
	}
	if plCount != 2 {
		t.Errorf("PlanetLab-managed sites = %d, want 2", plCount)
	}
}

func TestProbeSuiteOnGlobus(t *testing.T) {
	f := Build(StackGlobus, Config{Seed: 2}, testSpecs(3, GlobusSitePolicy(true, true)))
	rep := RunProbes(f)
	mustPass := []string{"discovery", "remote-execution", "advance-reservation", "co-allocation", "identity-delegation", "central-update-push"}
	for _, name := range mustPass[:5] {
		if err := rep.Results[name]; err != nil {
			t.Errorf("globus %s: %v", name, err)
		}
	}
	mustFail := []string{"usage-delegation", "fine-grained-control", "uniform-node-api", "vm-instantiation"}
	for _, name := range mustFail {
		if err := rep.Results[name]; !errors.Is(err, ErrNoMechanism) {
			t.Errorf("globus %s = %v, want ErrNoMechanism", name, err)
		}
	}
}

func TestProbeSuiteOnPlanetLab(t *testing.T) {
	f := Build(StackPlanetLab, Config{Seed: 2}, testSpecs(3, PlanetLabSitePolicy()))
	rep := RunProbes(f)
	mustPass := []string{"discovery", "remote-execution", "advance-reservation", "co-allocation",
		"usage-delegation", "fine-grained-control", "uniform-node-api", "central-update-push", "vm-instantiation"}
	for _, name := range mustPass {
		if err := rep.Results[name]; err != nil {
			t.Errorf("planetlab %s: %v", name, err)
		}
	}
	if err := rep.Results["identity-delegation"]; !errors.Is(err, ErrNoMechanism) {
		t.Errorf("planetlab identity-delegation = %v, want ErrNoMechanism", err)
	}
	if rep.Passed != 9 || rep.Total != 10 {
		t.Errorf("score = %d/%d", rep.Passed, rep.Total)
	}
}

func TestHybridPassesEverything(t *testing.T) {
	// §5's point: the layered system offers the union of mechanisms.
	f := Build(StackHybrid, Config{Seed: 2}, testSpecs(3, PlanetLabSitePolicy()))
	rep := RunProbes(f)
	for name, err := range rep.Results {
		// uniform-node-api legitimately fails under hybrid when Globus
		// sites are in the mix; with all-PlanetLab members it passes.
		if err != nil {
			t.Errorf("hybrid %s: %v", name, err)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	pts := F1.Run(3, 8, 1)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var g, p Fig1Point
	for _, pt := range pts {
		switch pt.Stack {
		case StackGlobus:
			g = pt
		case StackPlanetLab:
			p = pt
		}
	}
	// The paper's Figure 1: PlanetLab = low autonomy, high functionality;
	// Globus = high autonomy, lower VO-level functionality.
	if !(p.Functionality > g.Functionality) {
		t.Errorf("functionality: planetlab %v <= globus %v", p.Functionality, g.Functionality)
	}
	if !(g.Autonomy > p.Autonomy) {
		t.Errorf("autonomy: globus %v <= planetlab %v", g.Autonomy, p.Autonomy)
	}
	if g.Participation != 1 {
		t.Errorf("globus participation = %v, want 1 (accepts everyone)", g.Participation)
	}
	if p.Participation >= 1 {
		t.Errorf("planetlab participation = %v, want < 1 (high-autonomy sites refuse)", p.Participation)
	}
}

func TestFigure1SweepRuns(t *testing.T) {
	rows := F1Sweep.Run(3, AlphaGrid{Sites: 4, Alphas: []float64{0.1, 0.9}}, 1)
	want := []Stack{StackGlobus, StackPlanetLab, StackGlobus, StackPlanetLab}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i, r := range rows {
		if r.Stack != want[i] {
			t.Errorf("row %d: stack %v, want %v", i, r.Stack, want[i])
		}
	}
	// At alpha=0.9 nobody joins PlanetLab, so its effective functionality
	// is 0.
	if pl := rows[3]; pl.Alpha != 0.9 || pl.Joined != 0 || pl.Effective != 0 {
		t.Errorf("alpha=0.9 planetlab row: %+v, want nobody joined and effective 0", pl)
	}
}

func TestFigure2TraceMatchesPaper(t *testing.T) {
	res, err := Figure2(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFigure2(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Leases) == 0 {
		t.Error("no leases")
	}
	// Steps are in non-decreasing virtual time.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].At < res.Trace[i-1].At {
			t.Errorf("trace time went backwards at %d", i)
		}
	}
}

func TestTable1CoversPaperAbbreviations(t *testing.T) {
	want := map[string]bool{"GT": true, "GT3": true, "VO": true, "WSRF": true, "OGSA": true, "GSI": true, "VM": true}
	for _, a := range Table1() {
		delete(want, a.Abbr)
		if a.Definition == "" || a.Module == "" {
			t.Errorf("row %q incomplete", a.Abbr)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing abbreviations: %v", want)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var sb strings.Builder
	RenderTable1(&sb)
	if !strings.Contains(sb.String(), "Grid Security Infrastructure") {
		t.Error("table1 render")
	}
	sb.Reset()
	F1.Print(&sb, F1.Run(3, 6, 1))
	if !strings.Contains(sb.String(), "Figure 1") {
		t.Error("figure1 render")
	}
	sb.Reset()
	if err := RenderFigure2(&sb, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "instantiate service") {
		t.Error("figure2 render")
	}
}

func TestUserMappedEverywhere(t *testing.T) {
	f := Build(StackGlobus, Config{Seed: 1, StopPushers: true}, testSpecs(3, GlobusSitePolicy(true, false)))
	f.User("carol")
	for _, s := range f.JoinedSites() {
		if _, err := s.Gridmap.Authorize("carol"); err != nil {
			t.Errorf("site %s: %v", s.Spec.Name, err)
		}
	}
	// Same credential on repeat calls.
	if f.User("carol") != f.User("carol") {
		t.Error("User not memoized")
	}
}

func TestStackString(t *testing.T) {
	if StackGlobus.String() != "globus" || StackHybrid.String() != "hybrid" {
		t.Error("stack names")
	}
}

func TestMeanAutonomyPlanetLabMembers(t *testing.T) {
	f := Build(StackPlanetLab, Config{Seed: 1, StopPushers: true}, testSpecs(3, PlanetLabSitePolicy()))
	if got := f.MeanAutonomy(); got != 0 {
		t.Errorf("PlanetLab member autonomy = %v, want 0 (mandated policy)", got)
	}
	fg := Build(StackGlobus, Config{Seed: 1, StopPushers: true}, testSpecs(3, GlobusSitePolicy(false, false)))
	if got := fg.MeanAutonomy(); got != 1 {
		t.Errorf("Globus autonomy = %v, want 1", got)
	}
}

func TestExperimentsSmoke(t *testing.T) {
	// E3 at small scale: one row per stack.
	scale := E3.Run(5, []int{4}, 1)
	if len(scale) != 2 || scale[0].Stack != StackGlobus || scale[1].Stack != StackPlanetLab {
		t.Errorf("scale rows: %+v", scale)
	}
	// E4: failure rate must decrease with lifetime.
	pl := E4.Run(5, ProxyGrid{Lifetimes: []time.Duration{time.Hour, 64 * time.Hour}, Jobs: 100}, 1)
	if len(pl) != 2 {
		t.Fatalf("proxy rows: %+v", pl)
	}
	if !(pl[0].FailRate > pl[1].FailRate) {
		t.Errorf("failure rate not decreasing: 1h=%v 64h=%v", pl[0].FailRate, pl[1].FailRate)
	}
	// E7: the uniform interface (zero dialects) needs fewer translation
	// ops per job than any dialect mix.
	if err := heteroClaim(E7.Run(5, HeteroGrid{Dialects: []int{0, 4}, Jobs: 30}, 1)); err != nil {
		t.Error(err)
	}
	// E9: conflicts appear only above factor 1.
	if err := oversubClaim(E9.Run(5, []float64{1.0, 2.0}, 1)); err != nil {
		t.Error(err)
	}
}

func TestDelegationExperimentShape(t *testing.T) {
	rows := E5.Run(5, DelegationGrid{Sites: 4, Ops: 10, Churns: []float64{0.5}}, 1)
	if len(rows) != 2 {
		t.Fatalf("delegation rows: %+v", rows)
	}
	// Usage delegation must succeed at least as often as identity
	// delegation under churn (tickets pre-stocked).
	if g, p := rows[0].SuccessRate, rows[1].SuccessRate; p < g {
		t.Errorf("usage-delegation success %v < identity %v under churn", p, g)
	}
}

func TestAllocationExperimentShape(t *testing.T) {
	rows := E6.Run(5, AllocationGrid{Nodes: 5, Services: 100}, 1)
	if len(rows) != 2 || rows[0].Discipline != "best-effort" || rows[1].Discipline != "reserved" {
		t.Fatalf("allocation rows: %+v", rows)
	}
	if err := allocationClaim(rows); err != nil {
		t.Error(err)
	}
}

func TestDataGridExperimentShape(t *testing.T) {
	// 2 losses × 2 stripes × 2 paths.
	rows := E8.Run(5, TransferGrid{Bytes: 50e6, Losses: []float64{0, 0.01}, Stripes: []int{1, 4}}, 1)
	if len(rows) != 8 {
		t.Fatalf("datagrid rows = %d: %+v", len(rows), rows)
	}
	if err := transferClaim(rows); err != nil {
		t.Error(err)
	}
}

func TestRecommendationsComplete(t *testing.T) {
	recs := Recommendations()
	if len(recs) < 5 {
		t.Fatalf("only %d recommendations", len(recs))
	}
	toPL, toGT := 0, 0
	for _, r := range recs {
		if r.Claim == "" || r.DemonstratedBy == "" {
			t.Errorf("incomplete recommendation %+v", r)
		}
		switch r.To {
		case "PlanetLab":
			toPL++
		case "Globus":
			toGT++
		}
	}
	// §6 addresses both communities.
	if toPL < 2 || toGT < 2 {
		t.Errorf("coverage: %d to PlanetLab, %d to Globus", toPL, toGT)
	}
	var sb strings.Builder
	RenderRecommendations(&sb)
	if !strings.Contains(sb.String(), "identity delegation") {
		t.Error("render missing content")
	}
}

func TestRenderProbeMatrix(t *testing.T) {
	var sb strings.Builder
	ProbeMatrix.Print(&sb, ProbeMatrix.Run(3, testSpecs(3, PlanetLabSitePolicy()), 1))
	out := sb.String()
	for _, want := range []string{"identity-delegation", "usage-delegation", "TOTAL", "hybrid"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q:\n%s", want, out)
		}
	}
}

// Figure 2 renders identically across seeds in structure: the
// paper's arrow order is seed-independent even though key material varies.
func TestFigure2StepOrderSeedIndependent(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		res, err := Figure2(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := ValidateFigure2(res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestFigure2Golden pins the Figure 2 protocol trace for the canonical
// seed: its rendering must appear byte for byte in results_all.txt, the
// `gridlab all` output that cmd/gridlab's TestAllMatchesResultsFile holds
// (and its -update rewrites). Drift in the SHARP handshake's ordering,
// naming or rendering fails here, in the package that owns it.
func TestFigure2Golden(t *testing.T) {
	var sb strings.Builder
	if err := RenderFigure2(&sb, 42); err != nil {
		t.Fatal(err)
	}
	all, err := os.ReadFile(filepath.Join("..", "..", "results_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(all), sb.String()) {
		t.Errorf("Figure 2 trace at seed 42 is not in results_all.txt:\n%s", sb.String())
	}
}
