package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// Every example program must build and run to completion quickly: they are
// the repo's documentation-by-code and the first thing a new reader tries.
// Each gets a short wall-clock deadline so a hung simulation (e.g. a flow
// whose completion callback never fires) turns into a test failure instead
// of a stuck CI job.
func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		t.Fatal("no example programs found under examples/")
	}
	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), dir)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+dir)
			build.Dir = root
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build failed: %v\n%s", err, out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			run := exec.CommandContext(ctx, bin)
			run.Dir = root
			out, err := run.CombinedOutput()
			if ctx.Err() == context.DeadlineExceeded {
				t.Fatalf("example hung past deadline\noutput so far:\n%s", out)
			}
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out)
			}
			if len(out) == 0 {
				t.Error("example produced no output")
			}
		})
	}
}

// buildGridlab compiles this package into a temporary directory.
func buildGridlab(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the gridlab binary")
	}
	bin := filepath.Join(t.TempDir(), "gridlab")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	return bin
}

// A bad -format must be rejected before -o is opened: the command exits 1
// and an artifact already at that path keeps its bytes.
func TestTraceBadFormatKeepsExistingFile(t *testing.T) {
	bin := buildGridlab(t)
	artifact := filepath.Join(t.TempDir(), "trace.jsonl")
	const want = "previous trace\n"
	if err := os.WriteFile(artifact, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "trace", "fig2", "-o", artifact, "-format", "bogus").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1\n%s", err, out)
	}
	got, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("existing -o file was rewritten: %q, want %q", got, want)
	}
}

// Profiling is an observer: a small scale run prints the same bytes
// with and without -cpuprofile/-memprofile and leaves non-empty
// profiles, and a profile path that cannot be created stops the command
// with status 1 before it prints anything.
func TestProfileFlags(t *testing.T) {
	bin := buildGridlab(t)
	dir := t.TempDir()
	scale := []string{"scale", "-sites", "8", "-nodes", "64", "-leases", "256", "-regions", "2"}
	plain, err := exec.Command(bin, scale...).Output()
	if err != nil || len(plain) == 0 {
		t.Fatalf("plain scale run: %v, %d bytes of stdout", err, len(plain))
	}
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profiled, err := exec.Command(bin, append(scale, "-cpuprofile", cpu, "-memprofile", mem)...).Output()
	if err != nil {
		t.Fatalf("profiled scale run: %v", err)
	}
	if !bytes.Equal(plain, profiled) {
		t.Errorf("stdout differs under profiling:\n--- plain ---\n%s--- profiled ---\n%s", plain, profiled)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: err=%v, want a non-empty file", filepath.Base(p), err)
		}
	}

	cmd := exec.Command(bin, append([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}, scale...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("unwritable -cpuprofile: exit = %v, want status 1", err)
	}
	if len(out) != 0 || !strings.Contains(stderr.String(), "cpu.prof") {
		t.Errorf("unwritable -cpuprofile: stdout %q, stderr %q; want no run and a message naming the path", out, stderr.String())
	}
}
