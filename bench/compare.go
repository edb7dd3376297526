package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// side is one report file: for each (workload, metric) the value every
// run in the file reported, plus the per-repetition samples of the last
// run for when the file holds a single run.
type side struct {
	runs    map[[2]string][]float64
	samples map[[2]string][]float64
	failed  bool
}

// readSide loads a report file. A file may hold several reports one
// after another (cat run1.json run2.json > A.json): each is one run.
func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{runs: map[[2]string][]float64{}, samples: map[[2]string][]float64{}}
	dec := json.NewDecoder(f)
	for n := 0; ; n++ {
		var rep report
		if err := dec.Decode(&rep); errors.Is(err, io.EOF) {
			if n == 0 {
				return nil, fmt.Errorf("%s: no report", path)
			}
			return s, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for _, res := range rep.Results {
			if !res.Correct {
				s.failed = true
			}
			for _, defs := range [][]metric{endToEnd, perLayer} {
				for _, def := range defs {
					if m, ok := res.Metrics[def.Name]; ok {
						k := [2]string{res.Workload, def.Name}
						s.runs[k] = append(s.runs[k], m.Value)
						s.samples[k] = m.Values
					}
				}
			}
		}
	}
}

// spread is the run-to-run spread of one metric as a share of its
// median: the interquartile range over runs when the file holds at
// least four, their full range when fewer, and the range over the single
// run's repetitions when it holds one.
func (s *side) spread(k [2]string) float64 {
	vs := s.runs[k]
	if len(vs) < 2 {
		vs = s.samples[k]
	}
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	if len(vs) >= 4 {
		q1, q3 := quartiles(vs)
		return math.Abs((q3 - q1) / med)
	}
	return math.Abs((maxOf(vs) - minOf(vs)) / med)
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method), which
// is what the benchmark driver holds a metric's spread to.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return minOf(b) > maxOf(a)
	}
	return maxOf(b) < minOf(a)
}

// compareFiles prints, per (workload, end-to-end metric), both medians,
// how much worse B is than A, the bound and a verdict: regressed when B's
// median is worse than A's by more than the bound; unresolved when it is
// not but the spread on either side is wider than the bound (unless
// every run of B beats every run of A); ok otherwise. Per-layer metrics
// present on both sides are listed without a verdict. The exit code is 1
// on any regression or failed output check.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readSide(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readSide(pathB)
	if err != nil {
		return 2, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tspread A/B\tverdict")
	regressed, unresolved := 0, 0
	row := func(wl string, m metric, verdictFor func(worse, spread float64, k [2]string) string) {
		k := [2]string{wl, m.Name}
		if len(a.runs[k]) == 0 || len(b.runs[k]) == 0 {
			return
		}
		ma, mb := median(a.runs[k]), median(b.runs[k])
		worse := 0.0
		if ma != 0 {
			worse = (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
		}
		sa, sb := a.spread(k), b.spread(k)
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%.2f%%/%.2f%%\t%s\n",
			wl, m.Name, ma, mb, 100*worse, boundText(m), 100*sa, 100*sb, verdictFor(worse, math.Max(sa, sb), k))
	}
	for _, wl := range workloads {
		for _, m := range endToEnd {
			row(wl.name, m, func(worse, spread float64, k [2]string) string {
				switch {
				case worse > m.Bound:
					regressed++
					return "regressed"
				case spread > m.Bound && !allBetter(a.runs[k], b.runs[k], m.Better):
					unresolved++
					return "unresolved"
				}
				return "ok"
			})
		}
		for _, m := range perLayer {
			row(wl.name, m, func(float64, float64, [2]string) string { return "-" })
		}
	}
	if err := tw.Flush(); err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "\n%d regressed, %d unresolved (spread wider than bound)\n", regressed, unresolved)
	switch {
	case a.failed || b.failed:
		return 1, fmt.Errorf("a compared run failed its output checks")
	case regressed > 0:
		return 1, fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return 0, nil
}

func boundText(m metric) string {
	if m.Bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*m.Bound)
}
