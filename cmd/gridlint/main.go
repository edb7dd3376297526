// Command gridlint enforces gridlab's determinism & correctness
// contract with a stdlib-only static analyzer suite (see internal/lint):
//
//	walltime     no wall-clock reads in internal/ — time flows through sim.Engine
//	globalrand   no package-level math/rand draws — inject a seeded *rand.Rand
//	maporder     no order-sensitive effects inside map iteration
//	errdrop      no discarded errors from domain-critical calls
//	jitterrand   no composite-literal resilience executors — use resilience.NewKit
//	enginerace   no goroutine capture or channel transfer of engine state
//	snapcapture  no engine-scheduled closures over mutable captures (Fork-invisible)
//	snapleaf     no chan/unsafe.Pointer/mutable-func fields reachable from a SnapRoot
//	snaproot     state mutated by engine events must be SnapRoot-reachable
//
// Usage:
//
//	go run ./cmd/gridlint ./...
//
// gridlint exits 0 when the tree is clean, 1 on findings, 2 on usage or
// load errors, so CI can gate on it. A finding is suppressed — with a
// mandatory, audit-trailed reason — by a directive on the offending
// line or the line above:
//
//	//gridlint:ignore <analyzer> <reason>
//
// Stale directives (suppressing nothing), unknown analyzer names, and
// missing reasons are themselves findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	var (
		runSpec = flag.String("run", "", "comma-separated analyzer subset to run (default: all)")
		verbose = flag.Bool("v", false, "list suppressed findings with their ignore reasons")
		list    = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gridlint [flags] [packages]\n\n"+
			"Packages default to ./... relative to the enclosing module.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*runSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridlint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridlint:", err)
		os.Exit(2)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "gridlint: warning: %s: type check: %v\n", pkg.Path, terr)
		}
	}

	res := lint.Run(loader.Fset, pkgs, analyzers)
	for _, f := range res.Findings {
		fmt.Println(f)
	}
	if *verbose {
		for _, f := range res.Suppressed {
			fmt.Printf("suppressed: %s: %s: %s (reason: %s)\n",
				f.Pos, f.Analyzer, f.Message, f.IgnoreReason)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "gridlint: %d finding(s) in %d package(s)\n", len(res.Findings), len(pkgs))
		os.Exit(1)
	}
}
