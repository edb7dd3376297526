package obs

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/metrics"
)

// WriteTimeline renders the span set as an ASCII virtual-time Gantt
// chart: one row per span in begin order, indented by causal depth,
// with a bar spanning its interval scaled to width columns. It is the
// human-readable sibling of WriteChromeTrace, and the counter table
// below it is the registry's final state.
func (t *Tracer) WriteTimeline(w io.Writer, width int) {
	if t == nil {
		fmt.Fprintln(w, "obs: tracing disabled (nil tracer)")
		return
	}
	if width < 20 {
		width = 20
	}
	if len(t.spans) == 0 {
		fmt.Fprintln(w, "obs: no spans recorded")
	} else {
		t0 := t.spans[0].Begin
		t1 := t0
		for _, s := range t.spans {
			end := s.End
			if s.Open {
				end = t.eng.Now()
			}
			if end > t1 {
				t1 = end
			}
		}
		span := t1 - t0
		if span <= 0 {
			span = 1
		}
		col := func(at time.Duration) int {
			c := int(float64(at-t0) / float64(span) * float64(width-1))
			if c < 0 {
				c = 0
			}
			if c > width-1 {
				c = width - 1
			}
			return c
		}
		depth := make(map[uint64]int, len(t.spans))
		nameW := 0
		for _, s := range t.spans {
			depth[s.ID] = depth[s.Parent] + 1
			if n := len(s.Name) + 2*(depth[s.ID]-1); n > nameW {
				nameW = n
			}
		}
		fmt.Fprintf(w, "timeline %v .. %v (%d spans)\n", t0, t1, len(t.spans))
		for _, s := range t.spans {
			end := s.End
			mark := byte(']')
			if s.Open {
				end, mark = t.eng.Now(), '>'
			}
			bar := make([]byte, width)
			for i := range bar {
				bar[i] = ' '
			}
			lo, hi := col(s.Begin), col(end)
			for i := lo; i <= hi; i++ {
				bar[i] = '='
			}
			bar[lo] = '['
			bar[hi] = mark
			if lo == hi {
				bar[lo] = '|'
			}
			label := strings.Repeat("  ", depth[s.ID]-1) + s.Name
			fmt.Fprintf(w, "%-*s |%s| %v\n", nameW, label, bar, end-s.Begin)
		}
	}
	if len(t.counters) > 0 {
		tbl := metrics.NewTable("counter", "value")
		for _, name := range t.counterNames() {
			tbl.AddRow(name, fmt.Sprint(t.Counter(name).Value()))
		}
		fmt.Fprintln(w)
		tbl.Render(w)
	}
	if len(t.hists) > 0 {
		tbl := metrics.NewTable("histogram", "n", "p50 (s)", "p95 (s)", "max (s)")
		for _, name := range t.histNames() {
			h := t.hists[name]
			tbl.AddRow(name, h.N(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(1))
		}
		fmt.Fprintln(w)
		tbl.Render(w)
	}
}
