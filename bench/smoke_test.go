package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/faultlab"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokeOpts runs every workload at 1/40 size: three tiny repetitions
// through the same code paths as the full run.
var smokeOpts = options{seed: defaultSeed, seconds: 0, div: 40}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, defined any
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, manifest(), false); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &defined); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, defined) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate it with `go run ./bench -manifest`")
	}
}

func TestNamesAndLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, s string) {
		if !nameRe.MatchString(s) {
			t.Errorf("%s name %q does not match %s", kind, s, nameRe)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		name("workload", w.name)
		wl[w.name] = true
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") || w.why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	e2e := map[string]bool{}
	hasSetup := false
	for _, m := range endToEnd {
		name("end-to-end", m.Name)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s (s, lower)")
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRe)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Def == "" {
			t.Errorf("%s: no definition", m.Name)
		}
	}
	for _, m := range perLayer {
		name("per-layer", m.Name)
		for _, mv := range m.Moves {
			if !e2e[mv.Metric] || !wl[mv.Workload] {
				t.Errorf("%s moves {%s, %s}: no such end-to-end metric or workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

func checkEmitted(t *testing.T, res *result, defs []metric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.DigestOK != 1 {
		t.Errorf("%s: correct=%v failed=%d/%d digest_ok=%d: %v", res.Workload, res.Correct, res.Failed, res.Attempted, res.DigestOK, res.Errors)
	}
	want := map[string]string{}
	for _, m := range defs {
		want[m.Name] = m.Unit
	}
	for name, v := range res.Metrics {
		if unit, ok := want[name]; !ok {
			t.Errorf("%s emits undeclared metric %q", res.Workload, name)
		} else if unit != v.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, name, v.Unit, unit)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s does not emit %q", res.Workload, name)
	}
}

// TestSmoke runs every workload end to end and traced at 1/40 size. The
// traced run of an E14 workload fails unless the replay reproduces
// scale.Run's totals, so a passing run is that check too.
func TestSmoke(t *testing.T) {
	rec := newRecorder()
	units := unitProbes(rec, smokeOpts.seed)
	for _, w := range workloads {
		res := measure(w, smokeOpts)
		checkEmitted(t, res, endToEnd)
		for _, m := range endToEnd {
			if v := res.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, m.Name, v)
			}
		}
		checkEmitted(t, tracedWith(w, smokeOpts, newRecorder(), units), perLayer)
	}
	for _, name := range []string{"identity.sign_us", "sharp.redeem_batch_us", "mds.register_ns", "core.build_ms", "sim.fire_10k_ns"} {
		if units[name] <= 0 {
			t.Errorf("unit probe %s = %v", name, units[name])
		}
	}
	if rec.get("probe.identity.sign").N == 0 || len(rec.spans) == 0 {
		t.Error("unit probes recorded no spans")
	}
}

// TestPanickingOpIsOneFailedOp is the failure accounting the chaos sweep
// relies on: a call that panics or errors is one failed op and the
// repetition goes on.
func TestPanickingOpIsOneFailedOp(t *testing.T) {
	ok := call{units: 1, run: func() (callOut, error) { return callOut{units: 1, digest: "x"}, nil }}
	fx := &fixture{calls: []call{
		ok,
		{units: 1, run: func() (callOut, error) { panic("sim: schedule at 707.044007ms before now 1s") }},
		{units: 1, run: func() (callOut, error) { return callOut{}, errors.New("output check failed") }},
		ok,
	}}
	st := runRep(fx, nil, nil)
	if st.attempted != 4 || st.failed != 2 || st.done != 2 || len(st.opMs) != 4 {
		t.Fatalf("attempted=%d failed=%d done=%d timed=%d, want 4 2 2 4", st.attempted, st.failed, st.done, len(st.opMs))
	}
	res := newResult(workloads[0], fx, options{seed: 1, div: 1}, []repStats{st, st})
	if res.Correct || res.Attempted != 8 || res.Failed != 4 || res.FailedOpsShare != 0.5 {
		t.Errorf("result %+v, want 4 of 8 failed and not correct", res)
	}
}

func TestDigestMissFailsEveryOp(t *testing.T) {
	a := repStats{attempted: 3, done: 3, digest: "aa"}
	b := repStats{attempted: 3, done: 3, digest: "bb"}
	res := newResult(workloads[0], &fixture{}, options{seed: 1, div: 1}, []repStats{a, b})
	if res.Correct || res.DigestOK != 0 || res.Failed != 6 {
		t.Errorf("differing digests: correct=%v digest_ok=%d failed=%d", res.Correct, res.DigestOK, res.Failed)
	}
}

// TestArmDefectScreen pins the seeds the known faultlab defect hits
// (README "Known defect"): each is left out of the generated sweeps, and
// each really does panic at the arm time when run, as one failed op. When
// faultlab is fixed this test fails, and the screen must go with it.
func TestArmDefectScreen(t *testing.T) {
	cfg, profiles := chaosSweepConfig(), faultlab.Profiles()
	var screened []int64
	for s := int64(1); s <= 420; s++ {
		if tripsArmDefect(s, profiles, cfg) {
			screened = append(screened, s)
		}
	}
	if want := []int64{9, 59, 272}; !reflect.DeepEqual(screened, want) {
		t.Fatalf("the screen drops seeds %v of 1..420, want %v", screened, want)
	}
	for _, s := range screened {
		_, err := safely(chaosCall(s, profiles, cfg))
		if want := fmt.Sprintf("before now %v", armAt); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("seed %d: error %v, want a panic %q: faultlab no longer trips here, so delete the screen", s, err, want)
		}
	}
	if _, err := safely(chaosCall(10, profiles, cfg)); err != nil {
		t.Errorf("seed 10, which the screen keeps, fails: %v", err)
	}
	seeds := sweepSeeds(1, 60, profiles, cfg)
	if len(seeds) != 60 || seeds[7] != 8 || seeds[8] != 10 || seeds[59] != 62 {
		t.Errorf("sweep from seed 1 is not 1..62 without 9 and 59: %v", seeds)
	}
}

// compareVerdict is the last column of the one row -compare prints for
// (workload, metric).
func compareVerdict(out, workload, metric string) string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == workload && f[1] == metric {
			return f[len(f)-1]
		}
	}
	return ""
}

// TestQuartilesMatchDriver holds -compare's spread to the quartiles the
// benchmark driver takes: statistics.quantiles(values, n=4) in Python.
func TestQuartilesMatchDriver(t *testing.T) {
	if q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles of ten values = %v, %v; Python says 1.75, 5.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{0.5, 1, 1.5, 1}); q1 != 0.625 || q3 != 1.375 {
		t.Errorf("quartiles of four values = %v, %v; Python says 0.625, 1.375", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall ...float64) string {
		var buf bytes.Buffer
		for _, v := range wall {
			rep := report{Results: []*result{{
				Workload: "cdn-churn", Correct: true,
				Metrics: map[string]metricValue{"wall_s": {Value: v, Unit: "s"}},
			}}}
			if err := writeJSON(&buf, rep, false); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// wall_s has a bound of 0.25.
	base := write("a.json", 1.00, 1.01, 0.99, 1.00)
	for _, tc := range []struct {
		name    string
		b       string
		code    int
		verdict string
	}{
		{"same", write("same.json", 1.01, 1.00, 1.00, 0.99), 0, "ok"},
		{"slower", write("slow.json", 1.30, 1.31, 1.29, 1.30), 1, "regressed"},
		// Median as A's, quartiles half a median apart: nothing can be said.
		{"noisy", write("noisy.json", 0.50, 1.00, 1.50, 1.00), 0, "unresolved"},
		// As wide a spread, but every run beats every run of A.
		{"faster", write("fast.json", 0.20, 0.90, 0.30, 0.60), 0, "ok"},
		// Within the bound on the median, spread too wide to rule out worse.
		{"slower-noisy", write("slownoisy.json", 0.60, 1.10, 1.70, 1.20), 0, "unresolved"},
	} {
		var out bytes.Buffer
		code, _ := compareFiles(&out, base, tc.b)
		if got := compareVerdict(out.String(), "cdn-churn", "wall_s"); code != tc.code || got != tc.verdict {
			t.Errorf("%s: exit %d verdict %q, want %d %q:\n%s", tc.name, code, got, tc.code, tc.verdict, out.String())
		}
	}
}
