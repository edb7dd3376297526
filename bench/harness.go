package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed    = 100
	defaultSeconds = 15
	// minReps is the floor on timed repetitions; -seconds adds more.
	minReps = 3
	// setupRounds is how often set-up (fixtures + 1/8-size warm-up) runs;
	// setup_s is the median, so one slow page-in does not set it.
	setupRounds = 3
	warmupDiv   = 8
)

// expectedJSON pins each workload's output digest at the default seed
// and full size: a speed-up must leave every simulated statistic
// identical.
//
//go:embed expected.json
var expectedJSON []byte

func expectedDigests() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("bench/expected.json: %v", err))
	}
	return m
}

// options are the knobs of one measurement. div > 1 shrinks the workload
// (tests only); the command line always measures full size.
type options struct {
	seed    int64
	seconds float64
	div     int
}

// metricValue is one reported number. Samples says how many measurements
// the value summarises; Values holds them when they are per repetition.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Values  []float64 `json:"values,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload       string                 `json:"workload"`
	Op             string                 `json:"op"`
	Traced         bool                   `json:"traced"`
	Sizes          map[string]int         `json:"sizes"`
	Reps           int                    `json:"repetitions"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	FailedOpsShare float64                `json:"failed_ops_share"`
	Digest         string                 `json:"output_digest"`
	DigestOK       int                    `json:"output_digest_ok"`
	Errors         []string               `json:"errors,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
}

// repStats is one repetition measured from outside.
type repStats struct {
	wallS                   float64
	opMs                    []float64
	attempted, failed, done int
	mallocs, allocBytes     uint64
	digest                  string
	errs                    []string
}

// safely runs one call; a panic becomes the call's error, so one broken
// op is one failed op and the repetition goes on.
func safely(c call) (out callOut, err error) {
	if perr := catch(func() { out, err = c.run() }); perr != nil {
		return callOut{}, perr
	}
	return out, err
}

// catch runs fn, turning a panic into an error.
func catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// runRep runs one repetition of a fixture: every call under recover,
// timed around each call, allocation counters read around the whole.
// rec (nil when untraced) gets one span per call.
func runRep(fx *fixture, rec *recorder, spanName func(i int) string) repStats {
	st := repStats{opMs: make([]float64, 0, len(fx.calls))}
	h := sha256.New()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i, c := range fx.calls {
		if rec != nil {
			rec.op()
			rec.begin(spanName(i))
		}
		s := time.Now()
		out, err := safely(c)
		d := time.Since(s)
		rec.end()
		switch {
		case err != nil:
			st.attempted += c.units
			st.failed += c.units
			if len(st.errs) < 5 {
				st.errs = append(st.errs, firstLine(fmt.Sprintf("call %d: %v", i, err)))
			}
		default:
			st.attempted += out.units + out.failed
			st.failed += out.failed
			st.done += out.units
			h.Write([]byte(out.digest))
		}
		if c.units > 0 {
			st.opMs = append(st.opMs, float64(d.Nanoseconds())/1e6)
		}
	}
	st.wallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	st.mallocs, st.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	st.digest = hex.EncodeToString(h.Sum(nil))
	if fx.reset != nil {
		fx.reset()
	}
	return st
}

// setUp builds the workload's fixtures and runs the warm-up, several
// times over; it returns the last full-size fixture and every round's
// seconds.
func setUp(w *workload, o options) (*fixture, []float64) {
	var fx *fixture
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		t := time.Now()
		fx = w.build(o.seed, o.div)
		runRep(w.build(o.seed, warmupDiv*o.div), nil, nil)
		secs = append(secs, time.Since(t).Seconds())
	}
	return fx, secs
}

// measure is the untraced run: set-up, then timed repetitions with a GC
// between them for as long as another one still fits in -seconds (never
// fewer than minReps).
//
// Timings report the fastest repetition, not the median one. The sandbox
// host has slow phases (cache and memory-bandwidth contention from
// neighbours, no steal time) that add 10-45% to whole repetitions and
// outlast a run; noise only ever adds time, so the fastest repetition is
// the steadiest estimate of what the program costs (README "Why the
// fastest repetition"). Allocation counts do not depend on the host and
// report their median.
func measure(w *workload, o options) *result {
	fx, setups := setUp(w, o)
	var reps []repStats
	var walls, rates, allocs, mbs, p50s, p90s []float64
	for start := time.Now(); len(reps) < minReps || time.Since(start).Seconds()+minOf(walls) <= o.seconds; {
		r := runRep(fx, nil, nil)
		reps = append(reps, r)
		per := float64(r.done)
		if per == 0 {
			per = math.Max(1, float64(r.attempted))
		}
		walls = append(walls, r.wallS)
		rates = append(rates, float64(r.done)/r.wallS)
		allocs = append(allocs, float64(r.mallocs)/per)
		mbs = append(mbs, float64(r.allocBytes)/1e6)
		// Percentiles per repetition, never pooled: one slow repetition
		// would otherwise set the tail of every call.
		p50s = append(p50s, percentile(r.opMs, 0.50))
		p90s = append(p90s, percentile(r.opMs, 0.90))
	}

	res := newResult(w, fx, o, reps)
	perRep := func(pick func([]float64) float64, unit string, vs []float64) metricValue {
		return metricValue{Value: pick(vs), Unit: unit, Samples: len(vs), Values: vs}
	}
	// A percentile rests on one repetition's calls, not on all of them.
	p50, p90 := perRep(minOf, "ms", p50s), perRep(minOf, "ms", p90s)
	p50.Samples, p90.Samples = len(reps[0].opMs), len(reps[0].opMs)
	res.Metrics = map[string]metricValue{
		"wall_s":        perRep(minOf, "s", walls),
		"ops_per_s":     perRep(maxOf, "1/s", rates),
		"op_ms_p50":     p50,
		"op_ms_p90":     p90,
		"allocs_per_op": perRep(median, "count", allocs),
		"alloc_mb":      perRep(median, "MB", mbs),
		"peak_rss_mb":   {Value: peakRSSMB(), Unit: "MB", Samples: 1},
		"setup_s":       perRep(median, "s", setups),
	}
	return res
}

// newResult fills the correctness half of a result from its repetitions:
// failed ops against attempted, and the output digest, which must repeat
// across repetitions and, at the default seed and full size, equal the
// committed one. A digest miss fails every op.
func newResult(w *workload, fx *fixture, o options, reps []repStats) *result {
	res := &result{Workload: w.name, Op: w.op, Sizes: fx.sizes, Reps: len(reps), DigestOK: 1, Digest: reps[0].digest}
	seen := map[string]bool{}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, e := range r.errs { // every repetition fails the same calls
			if !seen[e] {
				seen[e] = true
				res.Errors = append(res.Errors, e)
			}
		}
		if r.digest != res.Digest {
			res.DigestOK = 0
			res.Errors = append(res.Errors, fmt.Sprintf("output digest differs between repetitions: %s vs %s", res.Digest, r.digest))
		}
	}
	if o.seed == defaultSeed && o.div == 1 && res.Failed == 0 {
		if want := expectedDigests()[w.name]; want != res.Digest {
			res.DigestOK = 0
			res.Errors = append(res.Errors, fmt.Sprintf("output digest %s, bench/expected.json says %q", res.Digest, want))
		}
	}
	if len(res.Errors) > 8 {
		res.Errors = res.Errors[:8]
	}
	if res.DigestOK == 0 {
		res.Failed = res.Attempted
	}
	if res.Attempted > 0 {
		res.FailedOpsShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// firstLine keeps an error readable in a one-line report.
func firstLine(s string) string {
	s, _, _ = strings.Cut(s, "\n")
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }
func minOf(vs []float64) float64  { return percentile(vs, 0) }
func maxOf(vs []float64) float64  { return percentile(vs, 1) }

// percentile is the linear-interpolated quantile of vs (0 when empty).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is this process's VmHWM. Where /proc is missing it falls
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
