package lint

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The corpus loader is shared across tests: type-checking pulls the
// used slice of the standard library through the source importer, and
// paying that cost once keeps the suite fast.
var (
	corpusOnce   sync.Once
	corpusLoader *Loader
	corpusErr    error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	corpusOnce.Do(func() {
		corpusLoader, corpusErr = NewLoader(".")
	})
	if corpusErr != nil {
		t.Fatalf("NewLoader: %v", corpusErr)
	}
	return corpusLoader
}

func loadCorpus(t *testing.T, name string) (*Loader, *Package) {
	t.Helper()
	loader := sharedLoader(t)
	pkgs, err := loader.Load("internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%s): got %d packages, want 1", name, len(pkgs))
	}
	pkg := pkgs[0]
	for _, terr := range pkg.TypeErrors {
		t.Errorf("corpus %s does not type-check: %v", name, terr)
	}
	return loader, pkg
}

// want annotations: // want "regexp" or // want `regexp`, trailing on
// the offending line.
var wantRe = regexp.MustCompile("// want (?:\"([^\"]+)\"|`([^`]+)`)")

func wantsIn(loader *Loader, pkg *Package) map[int][]*regexp.Regexp {
	wants := map[int][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					line := loader.Fset.Position(c.Pos()).Line
					wants[line] = append(wants[line], regexp.MustCompile(regexp.QuoteMeta(pat)))
				}
			}
		}
	}
	return wants
}

// runCorpus checks a corpus package's findings exactly match its want
// annotations: every want hit, no unexpected findings.
func runCorpus(t *testing.T, name string, analyzers ...*Analyzer) Result {
	t.Helper()
	loader, pkg := loadCorpus(t, name)
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	res := Run(loader.Fset, []*Package{pkg}, analyzers)
	wants := wantsIn(loader, pkg)
	matched := map[string]bool{} // "line/idx" of consumed wants
	for _, f := range res.Findings {
		ok := false
		for i, re := range wants[f.Pos.Line] {
			key := fmt.Sprintf("%d/%d", f.Pos.Line, i)
			if !matched[key] && re.MatchString(f.Message) {
				matched[key] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line, regs := range wants {
		for i, re := range regs {
			if !matched[fmt.Sprintf("%d/%d", line, i)] {
				t.Errorf("%s line %d: no finding matched want %q", name, line, re)
			}
		}
	}
	return res
}

func TestWalltimeCorpus(t *testing.T)   { runCorpus(t, "walltime", WalltimeAnalyzer) }
func TestGlobalrandCorpus(t *testing.T) { runCorpus(t, "globalrand", GlobalrandAnalyzer) }
func TestMaporderCorpus(t *testing.T)   { runCorpus(t, "maporder", MaporderAnalyzer) }
func TestErrdropCorpus(t *testing.T)    { runCorpus(t, "errdrop", ErrdropAnalyzer) }
func TestJitterrandCorpus(t *testing.T) { runCorpus(t, "jitterrand", JitterrandAnalyzer) }
func TestEngineraceCorpus(t *testing.T) { runCorpus(t, "enginerace", EngineraceAnalyzer) }

func TestSnapcaptureCorpus(t *testing.T) { runCorpus(t, "snapcapture", SnapcaptureAnalyzer) }
func TestSnapleafCorpus(t *testing.T)    { runCorpus(t, "snapleaf", SnapleafAnalyzer) }
func TestSnaprootCorpus(t *testing.T)    { runCorpus(t, "snaproot", SnaprootAnalyzer) }

// TestSnapcaptureCatchesChaosRunRegression is the regression gate for
// the PR 6 chaosRun bug: the job counter, the private rand.Rand, and
// the seen-set lived only in ticker captures, so forked timelines
// replayed with post-snapshot state. The corpus preserves that exact
// shape; snapcapture must flag all three captures.
func TestSnapcaptureCatchesChaosRunRegression(t *testing.T) {
	res := runCorpus(t, "snapcapture", SnapcaptureAnalyzer)
	for _, name := range []string{`"next"`, `"jobRng"`, `"seen"`} {
		found := false
		for _, f := range res.Findings {
			if f.Analyzer == "snapcapture" && strings.Contains(f.Message, name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("chaosRun regression shape: no snapcapture finding mentions %s", name)
		}
	}
}

// TestJitterrandSkipsResiliencePackage: the guarded package's own files
// (constructors, tests) may build the literals.
func TestJitterrandSkipsResiliencePackage(t *testing.T) {
	loader, pkg := loadCorpus(t, "jitterrand")
	scoped := *pkg
	scoped.Path = "repro/internal/resilience"
	res := Run(loader.Fset, []*Package{&scoped}, []*Analyzer{JitterrandAnalyzer})
	if len(res.Findings) != 0 {
		t.Errorf("jitterrand inside its own package: got %d findings, want 0; first: %v",
			len(res.Findings), res.Findings[0])
	}
}

// TestEngineraceSkipsPerfSubtree: internal/perf and its subpackages own
// the one-engine-per-worker discipline, so the same goroutine handoffs
// produce no findings there.
func TestEngineraceSkipsPerfSubtree(t *testing.T) {
	loader, pkg := loadCorpus(t, "enginerace")
	for _, path := range []string{
		"repro/internal/perf",
		"repro/internal/perf/chaos",
	} {
		scoped := *pkg
		scoped.Path = path
		res := Run(loader.Fset, []*Package{&scoped}, []*Analyzer{EngineraceAnalyzer})
		if len(res.Findings) != 0 {
			t.Errorf("enginerace inside %s: got %d findings, want 0; first: %v",
				path, len(res.Findings), res.Findings[0])
		}
	}
}

// TestWalltimeScopedToInternal: the same wall-clock-ridden code outside
// internal/ produces no findings — examples and cmd may touch real time.
func TestWalltimeScopedToInternal(t *testing.T) {
	loader, pkg := loadCorpus(t, "walltime")
	scoped := *pkg
	scoped.Path = "repro/examples/walltime"
	res := Run(loader.Fset, []*Package{&scoped}, []*Analyzer{WalltimeAnalyzer})
	if len(res.Findings) != 0 {
		t.Errorf("walltime outside internal/: got %d findings, want 0; first: %v",
			len(res.Findings), res.Findings[0])
	}
}

// TestIgnoreSuppressesExactlyOne: a directive suppresses the finding on
// its own line or the line below — and nothing else.
func TestIgnoreSuppressesExactlyOne(t *testing.T) {
	loader, pkg := loadCorpus(t, "ignore")
	res := Run(loader.Fset, []*Package{pkg}, []*Analyzer{GlobalrandAnalyzer})
	if len(res.Findings) != 1 {
		t.Fatalf("active findings = %d, want exactly 1 (the undirected rand.Intn); got %v",
			len(res.Findings), res.Findings)
	}
	if f := res.Findings[0]; !strings.Contains(f.Message, "rand.Intn") {
		t.Errorf("surviving finding is not the bare rand.Intn: %v", f)
	}
	if len(res.Suppressed) != 2 {
		t.Fatalf("suppressed findings = %d, want 2 (one per directive form); got %v",
			len(res.Suppressed), res.Suppressed)
	}
	for _, s := range res.Suppressed {
		if s.IgnoreReason == "" {
			t.Errorf("suppressed finding lost its audit reason: %v", s)
		}
	}
}

// TestDirectiveHygiene: unknown analyzer names, missing reasons, and
// stale directives are themselves findings.
func TestDirectiveHygiene(t *testing.T) {
	loader, pkg := loadCorpus(t, "baddirective")
	res := Run(loader.Fset, []*Package{pkg}, Analyzers())
	wantSubstrings := []string{
		`unknown analyzer "nosuchanalyzer"`,
		"gridlint:ignore walltime has no reason",
		"needs an analyzer name and a reason",
		"suppresses nothing",
	}
	if len(res.Findings) != len(wantSubstrings) {
		t.Fatalf("directive findings = %d, want %d; got %v",
			len(res.Findings), len(wantSubstrings), res.Findings)
	}
	for _, want := range wantSubstrings {
		found := false
		for _, f := range res.Findings {
			if f.Analyzer == "directive" && strings.Contains(f.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive finding containing %q in %v", want, res.Findings)
		}
	}
}

// TestStaleDirectiveNotJudgedWhenAnalyzerNotRun: when the directive's
// analyzer is not part of the run, its usefulness cannot be judged, so
// no stale-directive finding is produced for it.
func TestStaleDirectiveNotJudgedWhenAnalyzerNotRun(t *testing.T) {
	loader, pkg := loadCorpus(t, "baddirective")
	res := Run(loader.Fset, []*Package{pkg}, []*Analyzer{WalltimeAnalyzer})
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "suppresses nothing") {
			t.Errorf("stale errdrop directive judged without running errdrop: %v", f)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("walltime,errdrop")
	if err != nil || len(as) != 2 || as[0].Name != "walltime" || as[1].Name != "errdrop" {
		t.Errorf("ByName(walltime,errdrop) = %v, %v", as, err)
	}
	if _, err := ByName("walltime,nope"); err == nil {
		t.Error("ByName with unknown analyzer: want error, got nil")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Errorf("ByName(\"\") = %d analyzers, %v; want full suite", len(all), err)
	}
}

// TestRepoIsClean is the contract this whole PR exists to enforce: the
// repository at HEAD has zero unsuppressed findings. If this fails, a
// determinism violation slipped in — fix it or justify it with a
// //gridlint:ignore <analyzer> <reason> directive.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint skipped in -short mode")
	}
	loader := sharedLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("Load(./...) found only %d packages — loader regression?", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type check: %v", pkg.Path, terr)
		}
	}
	res := Run(loader.Fset, pkgs, Analyzers())
	for _, f := range res.Findings {
		t.Errorf("determinism contract violation: %s", f)
	}
	for _, s := range res.Suppressed {
		t.Logf("audited suppression: %s (reason: %s)", s.Pos, s.IgnoreReason)
	}
}
