package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over type-checked packages. Most
// analyzers are per-package (Run); analyzers whose verdicts depend on
// facts spread across packages — e.g. "is this type registered as a
// snapshot root anywhere in the module" — implement RunAll instead and
// see every loaded package in a single pass. An analyzer sets exactly
// one of the two.
type Analyzer struct {
	Name   string // short lowercase name, used in diagnostics and directives
	Doc    string // one-line description
	Run    func(*Pass)
	RunAll func(*AllPass)
}

// Pass carries one analyzer's view of one package plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	findings *[]Finding
}

// Reportf records a diagnostic at pos. The hint tells the developer how
// to restore the determinism contract; it is appended to the message.
func (p *Pass) Reportf(pos token.Pos, hint string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// AllPass carries a whole-program analyzer's view of every loaded
// package plus the report sink.
type AllPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	findings *[]Finding
}

// Reportf records a diagnostic at pos, exactly as Pass.Reportf does.
func (p *AllPass) Reportf(pos token.Pos, hint string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// Finding is one diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Hint     string
	// Suppressed marks a finding matched by a //gridlint:ignore
	// directive; the directive's reason is recorded for the audit trail.
	Suppressed   bool
	IgnoreReason string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
	if f.Hint != "" {
		s += " (hint: " + f.Hint + ")"
	}
	return s
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		GlobalrandAnalyzer,
		MaporderAnalyzer,
		ErrdropAnalyzer,
		JitterrandAnalyzer,
		EngineraceAnalyzer,
		SnapcaptureAnalyzer,
		SnapleafAnalyzer,
		SnaprootAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list ("walltime,errdrop")
// against the suite. An empty spec selects every analyzer.
func ByName(spec string) ([]*Analyzer, error) {
	all := Analyzers()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Result is the outcome of running a suite over a set of packages.
type Result struct {
	// Active findings, sorted by position: these fail the build.
	Findings []Finding
	// Suppressed findings, each carrying its directive's reason.
	Suppressed []Finding
}

// Run executes the analyzers over the packages, applies
// //gridlint:ignore directives, and reports directive hygiene problems
// (unknown analyzer names, missing reasons, directives that suppress
// nothing) as findings of the synthetic "directive" analyzer.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) Result {
	var all []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, findings: &all}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunAll == nil {
			continue
		}
		a.RunAll(&AllPass{Analyzer: a, Fset: fset, Pkgs: pkgs, findings: &all})
	}

	run := map[string]bool{}
	for _, a := range analyzers {
		run[a.Name] = true
	}
	var res Result
	for _, pkg := range pkgs {
		dirs, errs := directives(fset, pkg)
		for _, err := range errs {
			res.Findings = append(res.Findings, err)
		}
		for _, d := range dirs {
			if !run[d.Analyzer] {
				continue // analyzer not selected this run; can't judge use
			}
			used := false
			for i := range all {
				f := &all[i]
				if f.Suppressed || f.Analyzer != d.Analyzer {
					continue
				}
				if f.Pos.Filename == d.File && (f.Pos.Line == d.Line || f.Pos.Line == d.Line+1) {
					f.Suppressed = true
					f.IgnoreReason = d.Reason
					used = true
				}
			}
			if !used {
				res.Findings = append(res.Findings, Finding{
					Analyzer: "directive",
					Pos:      token.Position{Filename: d.File, Line: d.Line},
					Message:  fmt.Sprintf("//gridlint:ignore %s directive suppresses nothing", d.Analyzer),
					Hint:     "delete the stale directive",
				})
			}
		}
	}
	for _, f := range all {
		if f.Suppressed {
			res.Suppressed = append(res.Suppressed, f)
		} else {
			res.Findings = append(res.Findings, f)
		}
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}

// ---- shared AST/type helpers used by the analyzers ----

// pkgFunc reports whether call's callee is the package-level function
// pkgPath.name, resolved through the type checker (so renamed imports
// and shadowed identifiers are handled correctly).
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[base].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	if names == nil || names[sel.Sel.Name] {
		return sel.Sel.Name, true
	}
	return "", false
}

// rootIdent returns the leftmost identifier of an expression like
// x, x.f.g, or x[i], or nil when the expression has no identifier root.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// definedWithin reports whether the identifier's object is declared
// inside [lo, hi] — i.e. whether it is local to that region.
func definedWithin(info *types.Info, id *ast.Ident, lo, hi token.Pos) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() <= hi
}
