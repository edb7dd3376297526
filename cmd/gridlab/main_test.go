package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned file of every TestPinnedOutputs row")

// gridlab runs one command line in-process and returns what a shell would see.
func gridlab(args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// pinned is every output the reproduction commits: one row per command
// line, its exit status and its stderr. A row's output is its stdout, or
// the file it names as OUT (its stdout then empty), pinned in
// testdata/pinned/<name>.txt; `all` pins results_all.txt at the
// repository root. A sweep runs at -workers 1 and 8 against the same
// file. A digest row pins "sha256 <hex> <bytes>" for an output too large
// to commit.
type pinnedRow struct {
	name, line    string
	status        int
	stderr        string
	sweep, digest bool
}

var pinned = []pinnedRow{
	{name: "all", line: "all"},
	{name: "chaos-sweep", line: "chaos -sweep 5 -resilience -lease 90m -reconcile 15m", sweep: true},
	{name: "chaos-resilience", line: "chaos -seed 7 -resilience -lease 90m -reconcile 15m"},
	{name: "chaos-lease-10s", line: "chaos -seed 7 -resilience -lease 10s -reconcile 15m"},
	{name: "chaos-bisect", line: "chaos -seed 7 -lease 10m -bisect", status: 1,
		stderr: "gridlab chaos: 1 invariant violations\n"},
	{name: "byzantine-sweep", line: "byzantine -sweep 3", sweep: true},
	{name: "cdn", line: "cdn", sweep: true},
	{name: "trace-fig2", line: "trace fig2 -o OUT"},
	{name: "trace-fig2-chrome", line: "trace fig2 -format chrome -o OUT"},
	{name: "trace-delegation-timeline", line: "trace delegation -format timeline -o OUT"},
	{name: "trace-chaos", line: "trace chaos -o OUT", digest: true},
	{name: "scale", line: "scale -sites 64 -nodes 2048 -leases 4096 -regions 8", sweep: true},
}

// TestPinnedOutputs holds every row of pinned but `all` to its committed
// bytes: output, stderr and exit status. After an intended output change
// run
//
//	go test ./cmd/gridlab -update
//
// which rewrites the files, and refuses a row whose exit status or stderr
// is not its own, so a refusal or a failed gate is never pinned (a panic
// ends the test binary before anything is written).
func TestPinnedOutputs(t *testing.T) {
	for _, r := range pinned[1:] {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			checkPinned(t, r)
		})
	}
}

// TestAllMatchesResultsFile holds the `all` row, the committed
// reproduction, to results_all.txt at the repository root. It is
// the same check as every TestPinnedOutputs row, and -update rewrites it.
func TestAllMatchesResultsFile(t *testing.T) {
	t.Parallel()
	checkPinned(t, pinned[0])
}

// checkPinned runs one row of pinned and compares what it printed with
// the row's pinned file.
func checkPinned(t *testing.T, r pinnedRow) {
	file := filepath.Join("testdata", "pinned", r.name+".txt")
	if r.name == "all" {
		file = filepath.Join("..", "..", "results_all.txt")
	}
	workers := []string{"1"}
	if r.sweep {
		workers = append(workers, "8")
	}
	for _, w := range workers {
		args := append([]string{"-workers", w}, strings.Fields(r.line)...)
		out := filepath.Join(t.TempDir(), "out")
		toFile := slices.Index(args, "OUT")
		if toFile >= 0 {
			args[toFile] = out
		}
		stdout, stderr, status := gridlab(args...)
		if status != r.status || stderr != r.stderr {
			t.Fatalf("%v: status %d, stderr %q; want %d, %q", args, status, stderr, r.status, r.stderr)
		}
		raw := []byte(stdout)
		if toFile >= 0 {
			if stdout != "" {
				t.Fatalf("%v: wrote %q to stdout as well as -o", args, stdout)
			}
			var err error
			if raw, err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
		}
		got := raw
		if r.digest {
			got = fmt.Appendf(nil, "sha256 %x %d\n", sha256.Sum256(raw), len(raw))
		}
		if *update && w == "1" {
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			// t.TempDir is removed when the test ends; this outlives it.
			kept := filepath.Join(os.TempDir(), "pinned-"+r.name+".txt")
			if err := os.WriteFile(kept, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%v: output (%d bytes) differs from %s (%d bytes); it is kept in %s",
				args, len(got), file, len(want), kept)
		}
	}
}

// ownFlags lists, in name order, what a command's bind registers.
func ownFlags(c command) []string {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	c.bind(fs, new(globals))
	var own []string
	fs.VisitAll(func(f *flag.Flag) { own = append(own, f.Name) })
	return own
}

// foreignFlag is the first flag in the table that c does not own.
func foreignFlag(c command) string {
	own := ownFlags(c)
	for _, o := range commands() {
		for _, name := range ownFlags(o) {
			if !slices.Contains(own, name) {
				return name
			}
		}
	}
	return ""
}

// A command accepts the globals and its own flags only: every command,
// handed one flag that belongs to some other command, prints a usage
// message and exits 2 before anything reaches stdout.
func TestEveryCommandRejectsForeignFlags(t *testing.T) {
	for _, c := range commands() {
		foreign := foreignFlag(c)
		if foreign == "" {
			t.Fatalf("%s owns every flag in the table", c.name)
		}
		stdout, stderr, status := gridlab(c.name, "-"+foreign+"=1")
		if status != 2 || stdout != "" ||
			!strings.Contains(stderr, "flag provided but not defined: -"+foreign) ||
			!strings.Contains(stderr, "usage: gridlab "+c.name) {
			t.Errorf("%s -%s=1: status %d, stdout %q, stderr %q; want a usage message and status 2",
				c.name, foreign, status, stdout, stderr)
		}
	}
	if _, _, status := gridlab("fig1", "-sweep", "3", "-sites", "5", "-bisect"); status != 2 {
		t.Errorf("fig1 -sweep 3 -sites 5 -bisect: status %d, want 2", status)
	}
}

// The four globals mean the same before and after the command name.
func TestGlobalFlagsEitherSide(t *testing.T) {
	before, _, s1 := gridlab("-workers", "8", "chaos", "-sweep", "2")
	after, _, s2 := gridlab("chaos", "-sweep", "2", "-workers", "8")
	one, _, s3 := gridlab("-workers", "1", "chaos", "-sweep", "2")
	if s1 != 0 || s2 != 0 || s3 != 0 || before == "" {
		t.Fatalf("chaos -sweep 2: statuses %d %d %d, output %q", s1, s2, s3, before)
	}
	if before != after || before != one {
		t.Errorf("-workers changes the output or depends on its side:\n%s\n%s\n%s", before, after, one)
	}

	before, _, _ = gridlab("-seed", "9", "chaos")
	after, _, _ = gridlab("chaos", "-seed", "9")
	plain, _, _ := gridlab("chaos")
	if before != after {
		t.Errorf("-seed 9 chaos and chaos -seed 9 differ")
	}
	if before == plain {
		t.Errorf("-seed 9 printed the default seed's run")
	}
}

func TestBisectExcludesSweep(t *testing.T) {
	stdout, stderr, status := gridlab("chaos", "-bisect", "-sweep", "2")
	if status != 2 || stdout != "" || !strings.Contains(stderr, "-bisect") || !strings.Contains(stderr, "usage: gridlab chaos") {
		t.Errorf("chaos -bisect -sweep 2: status %d, stdout %q, stderr %q; want a usage message and status 2",
			status, stdout, stderr)
	}
	stdout, _, status = gridlab("chaos", "-bisect")
	if status != 0 || !strings.HasPrefix(stdout, "bisect: seed=42 profile=mixed\n") {
		t.Errorf("chaos -bisect: status %d, stdout %q", status, stdout)
	}
}

// trace takes its scenario operand on either side of its flags, and at
// most one.
func TestTraceOperandEitherSide(t *testing.T) {
	before, _, s1 := gridlab("trace", "delegation", "-format", "timeline")
	after, _, s2 := gridlab("trace", "-format", "timeline", "delegation")
	fig2, _, s3 := gridlab("trace", "-format", "timeline")
	if s1 != 0 || s2 != 0 || s3 != 0 || before == "" {
		t.Fatalf("trace -format timeline: statuses %d %d %d, output %q", s1, s2, s3, before)
	}
	if before != after {
		t.Errorf("the operand's side changes the trace")
	}
	if before == fig2 {
		t.Errorf("the delegation operand was ignored: got the default fig2 trace")
	}
	if stdout, _, status := gridlab("trace", "fig2", "-format", "timeline", "delegation"); status != 2 || stdout != "" {
		t.Errorf("two operands: status %d, stdout %q; want status 2 and no output", status, stdout)
	}
}

// refused are command lines that parse but cannot run. Each comment says
// what the command did before flags were resolved ahead of the run: exit
// 0 on a silently rewritten value, a panic, a run that never ends, or a
// refusal that came only after -cpuprofile/-memprofile (and so clobbered
// them).
var refused = []struct {
	cmd  string
	args []string
	// names is what stderr must mention before the usage message.
	names string
}{
	{"byzantine", []string{"-sweep", "0"}, "-sweep"},                   // clobbered
	{"scale", []string{"-sites", "0"}, "-sites"},                       // clobbered
	{"scale", []string{"-sites", "8", "-regions", "0"}, "-regions"},    // exit 0: one region
	{"scale", []string{"-sites", "8", "-regions", "-1"}, "-regions"},   // exit 0: one region
	{"scale", []string{"-sites", "64", "-leases", "-5"}, "-leases"},    // exit 0: lease target 64
	{"scale", []string{"-sites", "64", "-regions", "100"}, "-regions"}, // exit 0: 64 regions
	{"scale", []string{"-sites", "64", "-leases", "5"}, "-leases"},     // exit 0: lease target 64
	{"chaos", []string{"-sweep", "-1"}, "-sweep"},                      // exit 0: one run
	{"chaos", []string{"-reconcile", "-1m"}, "-reconcile"},             // exit 0: reconcile off
	{"chaos", []string{"-reconcile", "1ns"}, "-reconcile"},             // never ends
	{"chaos", []string{"-workers", "-3"}, "-workers"},                  // exit 0: GOMAXPROCS
	{"chaos", []string{"-lease", "-1h"}, "-lease"},                     // panic
	{"chaos", []string{"-lease", "1ns"}, "-lease"},                     // panic
	{"chaos", []string{"-profile", "bogus"}, "-profile"},               // exit 1, clobbered
	{"chaos", []string{"-bisect", "-sweep", "2"}, "-bisect"},           // clobbered
	{"trace", []string{"-format", "bogus"}, "-format"},                 // exit 1, clobbered
	{"trace", []string{"bogus"}, "bogus"},                              // exit 1, clobbered
}

const sentinel = "sentinel\n"

// sentinels writes the files a command line may name as -cpuprofile,
// -memprofile and trace -o, and returns their paths in that order.
func sentinels(t *testing.T) []string {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"cpu.prof", "mem.prof", "trace.out"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(sentinel), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// touched lists the sentinel files whose bytes changed.
func touched(t *testing.T, paths []string) []string {
	var changed []string
	for _, p := range paths {
		if b, err := os.ReadFile(p); err != nil || string(b) != sentinel {
			changed = append(changed, filepath.Base(p))
		}
	}
	return changed
}

// A refused command line exits 2, says which flag is wrong before the
// usage message, prints nothing to stdout and touches no file it names.
func TestRefusedInvocations(t *testing.T) {
	for _, r := range refused {
		paths := sentinels(t)
		args := append([]string{"-cpuprofile", paths[0], "-memprofile", paths[1], r.cmd}, r.args...)
		if r.cmd == "trace" {
			args = append(args, "-o", paths[2])
		}
		stdout, stderr, status := gridlab(args...)
		named, usage := strings.Index(stderr, r.names), strings.Index(stderr, "usage: gridlab "+r.cmd)
		if status != 2 || stdout != "" || named < 0 || usage < named {
			t.Errorf("%s %v: status %d, stdout %q, stderr %q; want status 2 and %s named before the usage",
				r.cmd, r.args, status, stdout, stderr, r.names)
		}
		if changed := touched(t, paths); len(changed) > 0 {
			t.Errorf("%s %v: refused, yet rewrote %v", r.cmd, r.args, changed)
		}
	}
}

// fuzzPrefix sizes the rows whose default run takes far over 100 ms down
// to milliseconds; flags the fuzzer adds come later and win. fuzzSkip are
// the rows left out: proxylife takes ~0.4 s and has no flag of its own,
// and all runs every row in seconds. A line the fuzzer builds can still
// take seconds: chaos -lease 1m -resilience -sweep 3 takes ~1.7 s on a
// 2-core Xeon, nearly all of it ed25519 on lease renewals.
var (
	fuzzPrefix = map[string][]string{
		"scale":     {"-sites", "8", "-nodes", "64", "-leases", "64", "-regions", "2"},
		"byzantine": {"-sweep", "1"},
	}
	fuzzSkip = []string{"proxylife", "all"}
)

// fuzzAlphabet is every value the fuzzer gives a flag. Seeds stay in
// [-1, 5] and [42, 44] (-sweep is at most 3), clear of the seeds 9, 59 and
// 272 that trip the arm-time panic of ROADMAP 1(b).
var fuzzAlphabet = []string{"0", "-1", "1", "3", "1ns", "-1h", "1m", "90m", "1e18", "NaN", "", foreignValue, operandValue}

const (
	foreignValue = "\x00foreign" // a flag of some other command instead
	operandValue = "\x00operand" // an unknown operand instead
)

// FuzzCommandLine drives the command table with edge values. base picks a
// command row (at its fuzzPrefix) or, past the rows, a refused command
// line; picks is up to three (flag, value) byte pairs over the row's own
// flags and the globals. Whatever the line, run returns an exit status
// in {0, 1, 2}, a failure says why on stderr, a refusal (2) prints no
// stdout and touches no file, and a run that found something (1) leaves
// trace -o alone. A run that got that far owns its profiles.
func FuzzCommandLine(f *testing.F) {
	var rows []command
	for _, c := range commands() {
		if !slices.Contains(fuzzSkip, c.name) {
			rows = append(rows, c)
		}
	}
	for i := range refused {
		f.Add(uint8(len(rows)+i), []byte(nil))
	}
	at := func(name string) uint8 {
		return uint8(slices.IndexFunc(rows, func(c command) bool { return c.name == name }))
	}
	f.Add(at("chaos"), []byte{5, 3, 1, 6})  // -sweep=3 -lease=1m
	f.Add(at("scale"), []byte{2, 3, 6, 0})  // -regions=3 -cpuprofile=F
	f.Add(at("trace"), []byte{2, 10, 1, 0}) // -profile= -o=F
	f.Add(at("fig1"), []byte{1, 3, 0, 12})  // -workers=3, then an operand
	f.Fuzz(func(t *testing.T, base uint8, picks []byte) {
		var c command
		var args []string
		if i := int(base) % (len(rows) + len(refused)); i < len(rows) {
			c = rows[i]
		} else {
			r := refused[i-len(rows)]
			c = rows[slices.IndexFunc(rows, func(c command) bool { return c.name == r.cmd })]
			args = r.args
		}
		paths := sentinels(t)
		args = append(append([]string{"-memprofile", paths[1], c.name}, fuzzPrefix[c.name]...), args...)
		if c.name == "trace" {
			args = append(args, "-o", paths[2])
		}
		flags := append(ownFlags(c), "seed", "workers", "cpuprofile", "memprofile")
		for i := 0; i+1 < len(picks) && i < 6; i += 2 {
			name, val := flags[int(picks[i])%len(flags)], fuzzAlphabet[int(picks[i+1])%len(fuzzAlphabet)]
			switch {
			case val == foreignValue:
				args = append(args, "-"+foreignFlag(c)+"=1")
			case val == operandValue:
				args = append(args, "bogus")
			case val != "" && (name == "cpuprofile" || name == "memprofile" || name == "o"):
				args = append(args, "-"+name+"="+paths[slices.Index([]string{"cpuprofile", "memprofile", "o"}, name)])
			default:
				args = append(args, "-"+name+"="+val)
			}
		}
		stdout, stderr, status := gridlab(args...)
		switch {
		case status < 0 || status > 2:
			t.Fatalf("%v: status %d", args, status)
		case status != 0 && stderr == "":
			t.Fatalf("%v: status %d with nothing on stderr", args, status)
		case status == 2 && stdout != "":
			t.Fatalf("%v: refused, yet printed %q", args, stdout)
		}
		if changed := touched(t, paths); status == 2 && len(changed) > 0 ||
			status == 1 && slices.Contains(changed, "trace.out") {
			t.Fatalf("%v: status %d, yet rewrote %v", args, status, changed)
		}
	})
}
