package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sharp"
	"repro/internal/vm"
)

// ---- Table 1 ----------------------------------------------------------

// Abbreviation is one row of the paper's Table 1, extended with the
// gridlab module that implements the named system.
type Abbreviation struct {
	Abbr, Definition, Module string
}

// Table1 returns the paper's abbreviation glossary mapped onto this
// repository — the registry doubles as the implemented-system inventory.
func Table1() []Abbreviation {
	return []Abbreviation{
		{"GT", "Globus Toolkit", "internal/gram, internal/gsi, internal/mds, internal/broker"},
		{"GT3", "Globus Toolkit version 3", "internal/gram (service/job abstraction)"},
		{"VO", "Virtual Organization", "internal/core (Federation)"},
		{"WSRF", "Web Services Resource Framework", "internal/agreement (typed wire forms; encodings bracketed per §2.1)"},
		{"OGSA", "Open Grid Services Architecture", "internal/agreement, internal/mds (service interfaces)"},
		{"GSI", "Grid Security Infrastructure", "internal/gsi, internal/identity (proxy certificates)"},
		{"VM", "Virtual Machine", "internal/vm, internal/silk (enforcement)"},
	}
}

// RenderTable1 writes the glossary as an aligned table.
func RenderTable1(w io.Writer) {
	t := metrics.NewTable("abbr", "definition", "implemented by")
	for _, a := range Table1() {
		t.AddRow(a.Abbr, a.Definition, a.Module)
	}
	t.Render(w)
}

// ---- Figure 1 ---------------------------------------------------------

// Fig1Point is one system's position in the autonomy/functionality plane.
type Fig1Point struct {
	Stack         Stack
	Autonomy      float64
	Functionality float64
	Participation float64
	// Effective = Functionality × Participation: what the VO can actually
	// count on across the candidate population.
	Effective float64
}

// fig1Sites builds a candidate population of n sites whose autonomy
// demands are spread over [0,1] — the realistic mixed population both
// projects recruit from.
func fig1Sites(n int) []SiteSpec {
	specs := make([]SiteSpec, 0, n)
	for i := 0; i < n; i++ {
		alpha := float64(i) / float64(n-1)
		specs = append(specs, SiteSpec{
			Name:         fmt.Sprintf("site%02d", i),
			X:            float64(5 * (i + 1)),
			Y:            float64((i * 7) % 40),
			Nodes:        2,
			ClusterSlots: 8,
			Policy:       GradedPolicy(alpha),
		})
	}
	return specs
}

// Figure1 reproduces the paper's Figure 1 by construction and
// measurement: build each stack over the same mixed-autonomy candidate
// population, run the probe suite, and place each system at (mean member
// autonomy, probe pass fraction). The expected shape — PlanetLab high
// functionality / low autonomy, Globus the reverse — emerges from which
// probes mechanically succeed. The two stack builds are independent
// grid points (see parallel.go).
func Figure1(seed int64, nSites, workers int) []Fig1Point {
	if nSites < 4 {
		nSites = 4
	}
	stacks := []Stack{StackGlobus, StackPlanetLab}
	pts := make([]Fig1Point, len(stacks))
	perf.ForEach(len(stacks), workers, func(i int) {
		pts[i] = fig1Point(seed, nSites, stacks[i])
	})
	return pts
}

// fig1Point builds one stack over the mixed population and measures it;
// each call owns a private federation.
func fig1Point(seed int64, nSites int, stack Stack) Fig1Point {
	f := Build(stack, Config{Seed: seed}, fig1Sites(nSites))
	rep := RunProbes(f)
	return Fig1Point{
		Stack:         stack,
		Autonomy:      f.MeanAutonomy(),
		Functionality: rep.Score(),
		Participation: f.Participation(),
		Effective:     rep.Score() * f.Participation(),
	}
}

// Figure1Sweep sweeps a homogeneous population's autonomy demand alpha
// and reports each stack's effective functionality — the quantitative
// form of the Figure-1 tradeoff curve.
func Figure1Sweep(seed int64, nSites int, alphas []float64, workers int) *metrics.Table {
	return grid([]string{"alpha", "stack", "joined", "functionality", "effective"},
		len(alphas), workers, func(i int) [][]any {
			return fig1SweepRows(seed, nSites, alphas[i])
		})
}

// fig1SweepRows computes both stack rows for one autonomy demand alpha.
func fig1SweepRows(seed int64, nSites int, alpha float64) [][]any {
	specs := make([]SiteSpec, nSites)
	for i := range specs {
		specs[i] = SiteSpec{
			Name:         fmt.Sprintf("s%02d", i),
			X:            float64(5 * (i + 1)),
			Y:            10,
			Nodes:        2,
			ClusterSlots: 8,
			Policy:       GradedPolicy(alpha),
		}
	}
	var rows [][]any
	for _, stack := range []Stack{StackGlobus, StackPlanetLab} {
		f := Build(stack, Config{Seed: seed}, specs)
		rep := RunProbes(f)
		rows = append(rows, []any{alpha, stack.String(), len(f.JoinedSites()), rep.Score(), rep.Score() * f.Participation()})
	}
	return rows
}

// RenderFigure1 draws the scatter and the per-probe breakdown.
func RenderFigure1(w io.Writer, seed int64, nSites int) {
	pts := Figure1(seed, nSites, 1)
	var plotPts []metrics.Point
	for _, p := range pts {
		label := 'G'
		if p.Stack == StackPlanetLab {
			label = 'P'
		}
		plotPts = append(plotPts, metrics.Point{X: p.Autonomy, Y: p.Functionality, Label: label})
	}
	metrics.ScatterPlot(w, "Figure 1: P=PlanetLab, G=Globus", "individual site autonomy", "functionality at VO level", 48, 12, plotPts)
	t := metrics.NewTable("stack", "autonomy", "functionality", "participation", "effective")
	for _, p := range pts {
		t.AddRow(p.Stack.String(), p.Autonomy, p.Functionality, p.Participation, p.Effective)
	}
	t.Render(w)
}

// ---- Figure 2 ---------------------------------------------------------

// TraceStep is one arrow of the Figure-2 protocol diagram.
type TraceStep struct {
	Step   string // the paper's label: "1a", "2a", ..., "7"
	From   string
	To     string
	Action string
	At     time.Duration
}

// Figure2Result carries the protocol trace and the artifacts it built.
type Figure2Result struct {
	Trace  []TraceStep
	Slice  *vm.Slice
	Leases []*sharp.Lease
}

// Figure2 executes the SHARP scenario exactly as the paper's Figure 2
// draws it: an agent acquires tickets from sites A and B (1a/2a, 1b/2b),
// a service manager buys them (3, 4), redeems them at their issuers for
// leases (5, 6), then creates a VM, binds the leased resources, and
// starts the service (7).
func Figure2(seed int64) (*Figure2Result, error) {
	res, _, err := figure2(seed, false)
	return res, err
}

// Figure2Traced runs the same scenario with the obs layer on and returns
// the federation's tracer alongside the result: the nine protocol arrows
// become "fig2.step" spans under a root "fig2" span, with the sharp
// issue/redeem spans nested beneath the steps that caused them.
func Figure2Traced(seed int64) (*Figure2Result, *obs.Tracer, error) {
	return figure2(seed, true)
}

func figure2(seed int64, trace bool) (*Figure2Result, *obs.Tracer, error) {
	f := Build(StackPlanetLab, Config{Seed: seed, StopPushers: true, Trace: trace}, []SiteSpec{
		{Name: "siteA", X: 10, Y: 0, Nodes: 2, Policy: PlanetLabSitePolicy()},
		{Name: "siteB", X: 40, Y: 20, Nodes: 2, Policy: PlanetLabSitePolicy()},
	})
	agent := f.Deployer.Agent
	sm := identity.NewPrincipal("service-manager", f.Rng)
	res := &Figure2Result{}
	now := f.Eng.Now()
	horizon := now + time.Hour
	var root obs.SpanContext
	if f.Tracer != nil {
		root = f.Tracer.Begin("fig2", obs.Int("seed", int(seed)))
		defer func() { root.End() }()
	}
	restore := f.Tracer.EnterScope(root)
	defer restore()
	record := func(step, from, to, action string) {
		res.Trace = append(res.Trace, TraceStep{Step: step, From: from, To: to, Action: action, At: f.Eng.Now()})
		if f.Tracer != nil {
			s := f.Tracer.BeginUnder(root, "fig2.step",
				obs.String("step", step), obs.String("from", from),
				obs.String("to", to), obs.String("action", action))
			s.End()
		}
	}

	// Steps 1a/2a and 1b/2b: the agent acquires tickets from both sites.
	for i, siteName := range []string{"siteA", "siteB"} {
		suffix := string(rune('a' + i))
		auth := f.Deployer.Sites[siteName].Authority
		record("1"+suffix, agent.Name, siteName, "request ticket")
		tk, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 1, now, horizon)
		if err != nil {
			return nil, nil, err
		}
		record("2"+suffix, siteName, agent.Name, "grant ticket")
		if err := agent.Acquire(tk); err != nil {
			return nil, nil, err
		}
	}

	if fig2MidHook != nil {
		fig2MidHook(f)
	}

	// Steps 3/4: the service manager buys site-A resources from the agent.
	record("3", sm.Name, agent.Name, "request ticket")
	bought, err := agent.Sell(sm.Name, sm.Public(), "siteA", capability.CPU, 1, now, horizon)
	if err != nil {
		return nil, nil, err
	}
	record("4", agent.Name, sm.Name, "grant ticket")

	// Steps 5/6: redeem at the issuing site for a hard lease.
	authA := f.Deployer.Sites["siteA"].Authority
	record("5", sm.Name, "siteA", "redeem ticket")
	for _, tk := range bought {
		lease, err := authA.Redeem(tk)
		if err != nil {
			return nil, nil, err
		}
		res.Leases = append(res.Leases, lease)
	}
	record("6", "siteA", sm.Name, "grant lease")

	// Step 7: instantiate the service in a VM bound to the leases.
	rtA := f.Deployer.Sites["siteA"]
	v := vm.New("figure2-service", rtA.Node, rtA.NM)
	for _, lease := range res.Leases {
		if err := v.Bind(lease.CapID); err != nil {
			return nil, nil, err
		}
	}
	if err := v.Start(); err != nil {
		return nil, nil, err
	}
	record("7", sm.Name, "siteA", "instantiate service in virtual machine")
	slice := vm.NewSlice("figure2")
	if err := slice.Add(v); err != nil {
		return nil, nil, err
	}
	res.Slice = slice
	f.Tracer.SampleGauges()
	return res, f.Tracer, nil
}

// fig2MidHook, when set, runs between the ticket-acquisition and purchase
// phases of figure2 — the snapshot-purity gate uses it to take a
// mid-scenario engine snapshot and prove the capture is behaviourally
// free. Always nil outside tests.
var fig2MidHook func(f *Federation)

// Figure2ExpectedSteps is the paper's arrow order.
var Figure2ExpectedSteps = []string{"1a", "2a", "1b", "2b", "3", "4", "5", "6", "7"}

// ValidateFigure2 checks a trace against the paper's step sequence.
func ValidateFigure2(res *Figure2Result) error {
	if len(res.Trace) != len(Figure2ExpectedSteps) {
		return fmt.Errorf("core: %d steps, want %d", len(res.Trace), len(Figure2ExpectedSteps))
	}
	for i, want := range Figure2ExpectedSteps {
		if res.Trace[i].Step != want {
			return fmt.Errorf("core: step %d = %q, want %q", i, res.Trace[i].Step, want)
		}
	}
	if res.Slice == nil || res.Slice.Running() != 1 {
		return fmt.Errorf("core: service not running after step 7")
	}
	return nil
}

// RenderFigure2 prints the protocol trace.
func RenderFigure2(w io.Writer, seed int64) error {
	res, err := Figure2(seed)
	if err != nil {
		return err
	}
	if err := ValidateFigure2(res); err != nil {
		return err
	}
	t := metrics.NewTable("step", "from", "to", "action")
	for _, s := range res.Trace {
		t.AddRow(s.Step, s.From, s.To, s.Action)
	}
	t.Render(w)
	fmt.Fprintf(w, "service running: %d VM(s); leases: %d\n", res.Slice.Running(), len(res.Leases))
	return nil
}

// RenderProbeMatrix builds all three stacks over the given sites and
// prints the probe-by-probe comparison — the expanded, mechanised form of
// Figure 1's two points.
func RenderProbeMatrix(w io.Writer, seed int64, specs []SiteSpec) {
	stacks := []Stack{StackGlobus, StackPlanetLab, StackHybrid}
	reports := make(map[Stack]FunctionalityReport, len(stacks))
	for _, st := range stacks {
		f := Build(st, Config{Seed: seed}, specs)
		reports[st] = RunProbes(f)
	}
	t := metrics.NewTable("probe", "globus", "planetlab", "hybrid", "paper basis")
	mark := func(err error) string {
		if err == nil {
			return "yes"
		}
		return "-"
	}
	for _, p := range Probes() {
		t.AddRow(p.Name,
			mark(reports[StackGlobus].Results[p.Name]),
			mark(reports[StackPlanetLab].Results[p.Name]),
			mark(reports[StackHybrid].Results[p.Name]),
			p.Desc)
	}
	t.AddRow("TOTAL",
		fmt.Sprintf("%d/%d", reports[StackGlobus].Passed, reports[StackGlobus].Total),
		fmt.Sprintf("%d/%d", reports[StackPlanetLab].Passed, reports[StackPlanetLab].Total),
		fmt.Sprintf("%d/%d", reports[StackHybrid].Passed, reports[StackHybrid].Total),
		"")
	t.Render(w)
}
