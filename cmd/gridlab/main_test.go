package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results_all.txt")

// gridlab runs one command line in-process and returns what a shell would see.
func gridlab(args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// TestAllMatchesResultsFile holds the committed reproduction to what the
// command table prints today. Regenerate with:
//
//	go test ./cmd/gridlab -run TestAllMatchesResultsFile -update
func TestAllMatchesResultsFile(t *testing.T) {
	got, stderr, status := gridlab("all")
	if status != 0 {
		t.Fatalf("gridlab all: status %d\n%s", status, stderr)
	}
	golden := filepath.Join("..", "..", "results_all.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("`gridlab all` drifted from results_all.txt (%d vs %d bytes); run `gridlab all | diff - results_all.txt`",
			len(got), len(want))
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
