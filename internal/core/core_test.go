package core

import (
	"errors"
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
	pts := Figure1(3, 8, 1)
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
	tab := Figure1Sweep(3, 4, []float64{0.1, 0.9}, 1)
	out := tab.String()
	if !strings.Contains(out, "globus") || !strings.Contains(out, "planetlab") {
		t.Errorf("sweep table:\n%s", out)
	}
	// At alpha=0.9 PlanetLab effective functionality must be 0 (nobody
	// joins).
	lines := strings.Split(out, "\n")
	found := false
	for _, l := range lines {
		if strings.Contains(l, "0.90") && strings.Contains(l, "planetlab") {
			fields := strings.Fields(l)
			if fields[2] == "0" && fields[len(fields)-1] == "0" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("alpha=0.9 planetlab row wrong:\n%s", out)
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
	RenderFigure1(&sb, 3, 6)
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
	// E3 at small scale.
	scale := RunScale(5, []int{4}, 1).String()
	if !strings.Contains(scale, "globus") || !strings.Contains(scale, "planetlab") {
		t.Errorf("scale:\n%s", scale)
	}
	// E4: failure rate must decrease with lifetime.
	pl := RunProxyLifetime(5, []time.Duration{time.Hour, 64 * time.Hour}, 100, 1)
	out := pl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("proxy table:\n%s", out)
	}
	shortFail := strings.Fields(lines[2])[1]
	longFail := strings.Fields(lines[3])[1]
	if !(shortFail > longFail) { // string compare works for "0.xx" forms
		t.Errorf("failure rate not decreasing: 1h=%s 64h=%s\n%s", shortFail, longFail, out)
	}
	// E7: zero dialects → zero-ish ops; more dialects → more ops.
	het := RunHeterogeneity(5, []int{0, 4}, 30, 1)
	hetOut := het.String()
	hetLines := strings.Split(strings.TrimSpace(hetOut), "\n")
	if len(hetLines) != 4 {
		t.Fatalf("het table:\n%s", hetOut)
	}
	// E9: conflicts appear only above factor 1.
	ov := RunOversub(5, []float64{1.0, 2.0}, 1).String()
	ovLines := strings.Split(strings.TrimSpace(ov), "\n")
	f1 := strings.Fields(ovLines[2])
	f2 := strings.Fields(ovLines[3])
	if f1[3] != "0" {
		t.Errorf("factor 1.0 had conflicts:\n%s", ov)
	}
	if f2[3] == "0" {
		t.Errorf("factor 2.0 had no conflicts:\n%s", ov)
	}
}

func TestDelegationExperimentShape(t *testing.T) {
	tab := RunDelegation(5, 4, 10, 0.5)
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("delegation table:\n%s", out)
	}
	// Usage delegation must succeed at least as often as identity
	// delegation under churn (tickets pre-stocked).
	gFields := strings.Fields(lines[2])
	pFields := strings.Fields(lines[3])
	gRate, pRate := gFields[2], pFields[2]
	if pRate < gRate {
		t.Errorf("usage-delegation success %s < identity %s under churn:\n%s", pRate, gRate, out)
	}
}

func TestAllocationExperimentShape(t *testing.T) {
	tab := RunAllocation(5, 5, 100, 1)
	out := tab.String()
	if !strings.Contains(out, "best-effort") || !strings.Contains(out, "reserved") {
		t.Fatalf("allocation table:\n%s", out)
	}
}

func TestDataGridExperimentShape(t *testing.T) {
	tab := RunDataGrid(5, 50e6, []float64{0, 0.01}, []int{1, 4}, 1)
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + sep + 2 losses × 2 stripes × 2 paths = 10 lines.
	if len(lines) != 10 {
		t.Fatalf("datagrid rows = %d:\n%s", len(lines), out)
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
	RenderProbeMatrix(&sb, 3, testSpecs(3, PlanetLabSitePolicy()))
	out := sb.String()
	for _, want := range []string{"identity-delegation", "usage-delegation", "TOTAL", "hybrid"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q:\n%s", want, out)
		}
	}
}
