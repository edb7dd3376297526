package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docs are the documents whose backticked test names must resolve;
// identifiers are resolved in all but bench/README.md, whose metric names
// (sim.fire_10k_ns) read like them.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"}

// designLineBudget is DESIGN.md's line ceiling. It may only fall: a change
// that raises it says why in CHANGES.md.
const designLineBudget = 996

var (
	// fenceRe matches a fenced code block, whose backticks do not pair
	// with inline code spans.
	fenceRe = regexp.MustCompile("(?ms)^```.*?^```")
	// codeSpanRe matches an inline code span, which may wrap a line.
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	// citedRe matches a test, fuzz or benchmark name inside a span; a
	// trailing * cites every name with that prefix.
	citedRe = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*\*?`)
	// testFuncRe matches the declaration of one in a _test.go file.
	testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	// identRe matches pkg.Ident or pkg.Type.Member, Ident exported, inside
	// a span, not as the tail of a longer selector or path. An unexported
	// Ident is left alone: bench metric names read like mds.share.
	identRe = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// docSpans returns each document's inline code spans, fenced blocks left out.
func docSpans(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(string(src), ""), -1) {
			out[doc] = append(out[doc], span[1])
		}
	}
	return out
}

// TestDocsCiteRealTests checks that every test, fuzz or benchmark name
// the docs cite in backticks is declared in some _test.go file, so a
// renamed or deleted test cannot leave a dangling citation.
func TestDocsCiteRealTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		if !wild {
			return declared[name]
		}
		for d := range declared {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	cited := 0
	for doc, spans := range docSpans(t) {
		for _, span := range spans {
			for _, name := range citedRe.FindAllString(span, -1) {
				cited++
				if !resolves(name) {
					t.Errorf("%s cites `%s`, which no _test.go declares", doc, name)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no test names cited: the doc scan is broken")
	}
}

// goDecls is what the repo's non-main, non-test Go files declare: for each
// package name its top-level identifiers, and for each "pkg.Type" its
// methods, its fields and the types it embeds (as "pkg.Type" keys).
type goDecls struct {
	top      map[string]map[string]bool
	members  map[string]map[string]bool
	embedded map[string][]string
}

func parseDecls(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{top: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embedded: map[string][]string{}}
	member := func(key, name string) {
		if d.members[key] == nil {
			d.members[key] = map[string]bool{}
		}
		d.members[key][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && e.Name() == "testdata" {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		pkg := f.Name.Name
		if d.top[pkg] == nil {
			d.top[pkg] = map[string]bool{}
		}
		// typeKey names a type expression as a "pkg.Type" key, "" when it
		// is not a (possibly pointer or generic) named type.
		var typeKey func(x ast.Expr) string
		typeKey = func(x ast.Expr) string {
			switch x := x.(type) {
			case *ast.StarExpr:
				return typeKey(x.X)
			case *ast.IndexExpr:
				return typeKey(x.X)
			case *ast.IndexListExpr:
				return typeKey(x.X)
			case *ast.Ident:
				return pkg + "." + x.Name
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					return id.Name + "." + x.Sel.Name
				}
			}
			return ""
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[pkg][decl.Name.Name] = true
				} else if key := typeKey(decl.Recv.List[0].Type); key != "" {
					member(key, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						d.top[pkg][spec.Name.Name] = true
						key := pkg + "." + spec.Name.Name
						if target := typeKey(spec.Type); spec.Assign.IsValid() && target != "" {
							// An alias has its target's members.
							d.members[key] = map[string]bool{}
							d.embedded[key] = append(d.embedded[key], target)
							continue
						}
						var fields *ast.FieldList
						switch ty := spec.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							for _, n := range fld.Names {
								member(key, n.Name)
							}
							if len(fld.Names) == 0 {
								if emb := typeKey(fld.Type); emb != "" {
									member(key, emb[strings.LastIndex(emb, ".")+1:])
									d.embedded[key] = append(d.embedded[key], emb)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hasMember reports whether key declares name or reaches it through an
// embedded type.
func (d *goDecls) hasMember(key, name string, depth int) bool {
	if d.members[key][name] {
		return true
	}
	for _, emb := range d.embedded[key] {
		if depth < 4 && d.hasMember(emb, name, depth+1) {
			return true
		}
	}
	return false
}

// TestDocsCiteRealIdents checks that every backticked pkg.Ident or
// pkg.Type.Member whose pkg is one of the repo's packages names a func,
// type, const, var, method or struct field that package declares, so a
// deleted or renamed identifier cannot linger in the docs. A member is
// checked only when Ident is a type.
func TestDocsCiteRealIdents(t *testing.T) {
	d := parseDecls(t)
	cited := 0
	for doc, spans := range docSpans(t) {
		if doc == "bench/README.md" {
			continue
		}
		for _, span := range spans {
			for _, m := range identRe.FindAllStringSubmatch(span, -1) {
				pkg, ident, mem := m[1], m[2], m[3]
				if d.top[pkg] == nil || citedRe.MatchString(ident) {
					continue
				}
				cited++
				switch {
				case !d.top[pkg][ident]:
					t.Errorf("%s cites `%s.%s`, which package %s does not declare", doc, pkg, ident, pkg)
				case mem != "" && d.members[pkg+"."+ident] != nil && !d.hasMember(pkg+"."+ident, mem, 0):
					t.Errorf("%s cites `%s.%s.%s`, which %s.%s does not have", doc, pkg, ident, mem, pkg, ident)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no identifiers cited: the doc scan is broken")
	}
}

// TestDesignLineBudget holds DESIGN.md to designLineBudget lines.
func TestDesignLineBudget(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), "\n"); n > designLineBudget {
		t.Errorf("DESIGN.md has %d lines, over its budget of %d: shorten it rather than raise the budget", n, designLineBudget)
	}
}

var (
	// designSectionRe matches a numbered DESIGN.md section heading.
	designSectionRe = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// designSubRe matches a subsection heading, its title captured.
	designSubRe = regexp.MustCompile(`(?m)^### (.+)$`)
	// prCitedRe matches a pull-request citation, the mark of history.
	prCitedRe = regexp.MustCompile(`\bPRs? #?\d+`)
	// guardRe matches a test or fuzz target name.
	guardRe = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	// designRefRe matches a citation of a DESIGN section, with the
	// subsection title quoted after it when there is one.
	designRefRe = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)(?:\s+"([^"]+)")?`)
)

// designSections reads DESIGN.md and splits it at its "## N." headings,
// keyed by N.
func designSections(t *testing.T) (text string, sections map[int]string) {
	t.Helper()
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text = string(src)
	sections = map[int]string{}
	heads := designSectionRe.FindAllStringSubmatchIndex(text, -1)
	for i, h := range heads {
		end := len(text)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		n, _ := strconv.Atoi(text[h[2]:h[3]])
		if _, dup := sections[n]; dup {
			t.Fatalf("DESIGN.md has two sections numbered %d", n)
		}
		sections[n] = text[h[0]:end]
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections: the heading scan is broken")
	}
	return text, sections
}

// TestDesignHasNoHistory keeps DESIGN.md about the code as it stands: it
// cites no pull request (that history is CHANGES.md's and git's), and
// each mechanism section, §7 to §16, has the one shape they share: its
// invariant, the tests that guard it, and one current number.
func TestDesignHasNoHistory(t *testing.T) {
	text, sections := designSections(t)
	for i, line := range strings.Split(text, "\n") {
		if m := prCitedRe.FindString(line); m != "" {
			t.Errorf("DESIGN.md:%d cites %q: history belongs in CHANGES.md", i+1, m)
		}
	}
	for n := 7; n <= 16; n++ {
		sec, ok := sections[n]
		if !ok {
			t.Errorf("DESIGN.md has no section %d", n)
			continue
		}
		for _, label := range []string{"**Invariant.**", "**Guards.**", "**Number.**"} {
			if !strings.Contains(sec, label) {
				t.Errorf("DESIGN.md §%d has no %s paragraph", n, label)
			}
		}
		cites := false
		for _, span := range codeSpanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(sec, ""), -1) {
			cites = cites || guardRe.MatchString(span[1])
		}
		if !cites {
			t.Errorf("DESIGN.md §%d names no Test or Fuzz function that guards it", n)
		}
	}
}

// TestDocsCiteRealSections checks that every "DESIGN §N" in the README,
// EXPERIMENTS.md and the Go sources outside bench/ names a section
// DESIGN.md has, and that a quoted subsection title after it begins a
// "###" heading of that section.
func TestDocsCiteRealSections(t *testing.T) {
	_, sections := designSections(t)
	files := []string{"README.md", "EXPERIMENTS.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRefRe.FindAllStringSubmatch(string(src), -1) {
			cited++
			n, _ := strconv.Atoi(m[1])
			sec, ok := sections[n]
			if !ok {
				t.Errorf("%s cites DESIGN §%d, which DESIGN.md does not have", f, n)
				continue
			}
			if m[2] == "" {
				continue
			}
			title := strings.Join(strings.Fields(m[2]), " ")
			found := false
			for _, sub := range designSubRe.FindAllStringSubmatch(sec, -1) {
				found = found || strings.HasPrefix(sub[1], title)
			}
			if !found {
				t.Errorf("%s cites DESIGN §%d %q, which is no subsection of it", f, n, title)
			}
		}
	}
	if cited == 0 {
		t.Fatal("no DESIGN section cited: the scan is broken")
	}
}
