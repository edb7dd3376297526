package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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
)

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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fenceRe.ReplaceAllString(string(src), "")
		for _, span := range codeSpanRe.FindAllStringSubmatch(text, -1) {
			for _, name := range citedRe.FindAllString(span[1], -1) {
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
