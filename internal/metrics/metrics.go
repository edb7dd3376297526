// Package metrics provides the measurement and rendering utilities every
// gridlab experiment uses: sample sets with means and quantiles, Jain's
// fairness index, aligned ASCII tables (from cells or typed rows), and a
// dot plot for the Figure-1 style scatter outputs. Keeping rendering here
// means cmd/gridlab and the benches print byte-identical artifacts.
package metrics

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Sample is an accumulating set of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the average (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear
// interpolation; 0 when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Jain computes Jain's fairness index over allocations: 1 is perfectly
// fair, 1/n maximally unfair. Empty or all-zero input yields 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Table renders aligned columns. Rows are added as formatted cells; the
// writer pads to the widest cell per column.
type Table struct {
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// TableOf renders typed rows: each field of R tagged `col:"header"` is a
// column, in field order, and its value a cell formatted as AddRow does.
// Untagged fields are not printed.
func TableOf[R any](rows []R) *Table {
	rt := reflect.TypeFor[R]()
	t, cols := &Table{}, []int{}
	for i := range rt.NumField() {
		if h, ok := rt.Field(i).Tag.Lookup("col"); ok {
			t.Header, cols = append(t.Header, h), append(cols, i)
		}
	}
	for _, r := range rows {
		cells := make([]any, len(cols))
		for j, i := range cols {
			cells[j] = reflect.ValueOf(r).Field(i).Interface()
		}
		t.AddRow(cells...)
	}
	return t
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1e6 || (v != 0 && math.Abs(v) < 0.01):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	ncol := len(t.Header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.rows {
		measure(r)
	}
	writeRow := func(row []string) {
		parts := make([]string, ncol)
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Header)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// Point is one labelled scatter point.
type Point struct {
	X, Y  float64
	Label rune
}

// ScatterPlot renders labelled points on a w×h character grid with the
// origin at bottom-left — the Figure-1 rendering.
func ScatterPlot(w io.Writer, title, xlabel, ylabel string, width, height int, pts []Point) {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	minX, maxX, minY, maxY := 0.0, 1.0, 0.0, 1.0
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		x := int((p.X - minX) / (maxX - minX) * float64(width-1))
		y := int((p.Y - minY) / (maxY - minY) * float64(height-1))
		row := height - 1 - y
		grid[row][x] = p.Label
	}
	fmt.Fprintln(w, title)
	for i, row := range grid {
		marker := "|"
		if i == 0 {
			marker = "^"
		}
		fmt.Fprintf(w, "  %s %s\n", marker, strings.TrimRight(string(row), " "))
	}
	fmt.Fprintf(w, "  +%s>\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "  y: %s, x: %s\n", ylabel, xlabel)
}
