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

// A command accepts the globals and its own flags only: every command,
// handed one flag that belongs to some other command, prints a usage
// message and exits 2 before anything reaches stdout.
func TestEveryCommandRejectsForeignFlags(t *testing.T) {
	var all []string
	for _, c := range commands() {
		all = append(all, ownFlags(c)...)
	}
	for _, c := range commands() {
		own := ownFlags(c)
		i := slices.IndexFunc(all, func(name string) bool { return !slices.Contains(own, name) })
		if i < 0 {
			t.Fatalf("%s owns every flag in the table", c.name)
		}
		foreign := all[i]
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
