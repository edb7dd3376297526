// Command bench is the repository's end-to-end benchmark: six workloads
// that are the runs people wait for (E14 at two mixes, the chaos and
// byzantine sweeps, the CDN curve, MDS discovery), measured from outside
// with tracing off, plus a separate traced run that attributes each
// workload's seconds to the repo's layers. See README.md beside this
// file and BENCHMARK.json at the repository root.
//
//	go run ./bench                       every workload, end to end and traced
//	go run ./bench -workload cdn-churn   one workload, end to end
//	go run ./bench -workload cdn-churn -trace 1
//	go run ./bench -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

var (
	flagWorkload = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
	flagSeed     = flag.Int64("seed", defaultSeed, "the only input the workload generators take")
	flagSeconds  = flag.Float64("seconds", defaultSeconds, "how long the timed repetitions of one workload run (at least 3 repetitions)")
	flagTrace    = flag.String("trace", "", "0 = end-to-end metrics, 1 = the traced per-layer run (default: 0 with -workload, both without)")
	flagTraceOut = flag.String("trace-out", "", "with -trace 1 and -workload: write the recorded spans to this file")
	flagOut      = flag.String("o", "", "also write the JSON report to this file")
	flagCompare  = flag.Bool("compare", false, "compare two report files: -compare A.json B.json")
	flagManifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
)

// header is the provenance every report carries.
type header struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	MinReps    int     `json:"min_repetitions"`
}

// report is what one invocation prints: provenance plus one result per
// (workload, traced or not).
type report struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

// verdict is the last line of a -workload run, in the form the
// benchmark driver reads.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]unitedValue `json:"metrics"`
}

type unitedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	flag.Parse()
	// One caller, one timeline: two procs leave room for the GC beside
	// the single workload goroutine without measuring the scheduler.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	switch {
	case *flagManifest:
		return 0, writeJSON(os.Stdout, manifest(), true)
	case *flagCompare:
		if flag.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two report files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *flagTrace != "" && *flagTrace != "0" && *flagTrace != "1":
		return 2, fmt.Errorf("-trace takes 0 or 1, not %q", *flagTrace)
	case *flagWorkload != "":
		return runOne()
	default:
		return runAll()
	}
}

func newHeader() header {
	return header{
		GitRev: gitRev(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: 1,
		Seed: *flagSeed, Seconds: *flagSeconds, MinReps: minReps,
	}
}

// gitRev is the commit the binary was built from, when the toolchain or
// a git checkout can tell; benchmark checkouts are often neither.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runOne measures one workload in this process, so peak_rss_mb is that
// workload's own high-water mark. It prints the full report on one line
// and the driver's verdict on the last.
func runOne() (int, error) {
	w := workloadByName(*flagWorkload)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", *flagWorkload)
	}
	o := options{seed: *flagSeed, seconds: *flagSeconds, div: 1}
	var res *result
	if *flagTrace == "1" {
		var rec *recorder
		res, rec = traced(w, o)
		if *flagTraceOut != "" {
			if err := rec.write(*flagTraceOut); err != nil {
				return 2, err
			}
		}
	} else {
		res = measure(w, o)
	}
	rep := report{Header: newHeader(), Results: []*result{res}}
	if err := emit(rep, false); err != nil {
		return 2, err
	}
	v := verdict{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]unitedValue{}}
	for name, m := range res.Metrics {
		v.Metrics[name] = unitedValue{m.Value, m.Unit}
	}
	if err := writeJSON(os.Stdout, v, false); err != nil {
		return 2, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%s: %d of %d ops failed: %s", w.name, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
	return 0, nil
}

// runAll is the driver process: one child per (workload, traced or not),
// strictly one at a time, each re-running this binary with -workload.
func runAll() (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 2, err
	}
	modes := []string{"0", "1"}
	if *flagTrace != "" {
		modes = []string{*flagTrace}
	}
	rep := report{Header: newHeader()}
	code := 0
	for _, w := range workloads {
		for _, mode := range modes {
			fmt.Fprintf(os.Stderr, "bench: %s (trace %s)\n", w.name, mode)
			cmd := exec.Command(self, "-workload", w.name, "-trace", mode,
				"-seed", fmt.Sprint(*flagSeed), "-seconds", fmt.Sprint(*flagSeconds))
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			child, err := firstReport(out)
			if err != nil {
				return 2, fmt.Errorf("%s (trace %s): %v (child: %v)", w.name, mode, err, runErr)
			}
			rep.Results = append(rep.Results, child.Results...)
			if runErr != nil {
				code = 1
			}
		}
	}
	if err := emit(rep, true); err != nil {
		return 2, err
	}
	if code != 0 {
		return code, fmt.Errorf("at least one workload failed its output checks")
	}
	return 0, nil
}

// firstReport decodes the report a -workload child printed first.
func firstReport(out []byte) (*report, error) {
	var rep report
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&rep); err != nil {
		return nil, fmt.Errorf("no report in child output: %v", err)
	}
	return &rep, nil
}

// emit prints the report and, with -o, also writes it to that file.
func emit(rep report, indent bool) error {
	if err := writeJSON(os.Stdout, rep, indent); err != nil {
		return err
	}
	if *flagOut == "" {
		return nil
	}
	f, err := os.Create(*flagOut)
	if err != nil {
		return err
	}
	if err := writeJSON(f, rep, indent); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(w io.Writer, v any, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}
