package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Quantile(0) != 0 || s.Quantile(0.5) != 0 {
		t.Error("empty sample stats nonzero")
	}
	for _, x := range []float64{4, 1, 3, 2, 5} {
		s.Add(x)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Errorf("n=%d mean=%v", s.N(), s.Mean())
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := s.Quantile(0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var s Sample
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("interpolated median = %v", got)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Quantile(0.5)
	s.Add(1)
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 after add = %v", got)
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal Jain = %v", got)
	}
	if got := Jain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("max-unfair Jain = %v", got)
	}
	if Jain(nil) != 0 || Jain([]float64{0, 0}) != 0 {
		t.Error("degenerate Jain nonzero")
	}
}

// Property: Jain is scale-invariant and bounded in (1/n, 1].
func TestJainProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		if !any {
			return Jain(xs) == 0
		}
		j := Jain(xs)
		if j <= 0 || j > 1.0000001 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return math.Abs(Jain(scaled)-j) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 123456789.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[1], "----") {
		t.Errorf("header/sep wrong:\n%s", out)
	}
	// Column two starts at the same offset in all rows.
	idx := strings.Index(lines[2], "1")
	if idx < 0 || !strings.HasPrefix(lines[3][strings.Index(lines[0], "value"):], "1.23e+08") {
		t.Errorf("alignment:\n%s", out)
	}
}

// TableOf prints the tagged fields of typed rows, in field order and as
// AddRow would print the same cells; an untagged field is not a column.
func TestTableOfMatchesAddRow(t *testing.T) {
	type row struct {
		Name  string        `col:"name"`
		Key   int           // not printed
		Wait  time.Duration `col:"mean wait"`
		Share float64       `col:"share"`
	}
	got := TableOf([]row{{"a", 7, 90 * time.Second, 0.5}, {"bb", 8, time.Hour, 1}}).String()
	want := NewTable("name", "mean wait", "share")
	want.AddRow("a", 90*time.Second, 0.5)
	want.AddRow("bb", time.Hour, 1.0)
	if got != want.String() {
		t.Errorf("TableOf:\n%s\nwant:\n%s", got, want.String())
	}
	if empty := TableOf[row](nil).String(); empty != "name  mean wait  share\n----  ---------  -----\n" {
		t.Errorf("no rows: %q", empty)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("v")
	tb.AddRow(3.0)       // integral
	tb.AddRow(3.14159)   // small
	tb.AddRow(1.25e7)    // large
	tb.AddRow(0.0000012) // tiny
	out := tb.String()
	for _, want := range []string{"3\n", "3.14", "1.25e+07", "1.2e-06"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestScatterPlot(t *testing.T) {
	var sb strings.Builder
	ScatterPlot(&sb, "Figure 1", "autonomy", "functionality", 20, 6, []Point{
		{X: 0.1, Y: 0.9, Label: 'P'},
		{X: 0.9, Y: 0.2, Label: 'G'},
	})
	out := sb.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "P") || !strings.Contains(out, "G") {
		t.Fatalf("plot:\n%s", out)
	}
	// P (high functionality) must appear on an earlier line than G.
	pLine, gLine := -1, -1
	for i, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "P") && !strings.Contains(line, "Figure") {
			pLine = i
		}
		if strings.Contains(line, "G") {
			gLine = i
		}
	}
	if pLine < 0 || gLine < 0 || pLine >= gLine {
		t.Errorf("P at %d, G at %d:\n%s", pLine, gLine, out)
	}
}
