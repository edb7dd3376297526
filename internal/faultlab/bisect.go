package faultlab

import (
	"fmt"
	"strings"
	"time"
)

// Bisection: say WHEN a chaos run first went wrong. Violations only
// accumulate along a timeline and chaosRun.record stamps each with the
// virtual time it was first seen, so the answer is read off one ordinary
// run. The snapshot-and-fork search that used to compute it survives as
// the oracle forkBisect in fork_test.go.

// BisectResult is the outcome of localizing a chaos failure in time.
type BisectResult struct {
	Seed    int64
	Profile string
	// Report is the run's outcome (identical to RunChaos for the same
	// inputs).
	Report *Report
	// FailAt is the virtual time of the audit that first recorded a
	// violation. Zero when the run never failed mid-run (clean run, or
	// FinalOnly).
	FailAt time.Duration
	// First holds the violations the FailAt audit recorded.
	First []Violation
	// FinalOnly reports that violations appeared only after the fault
	// horizon, in the healed converge tail or the final audit, so there is
	// no mid-run breach to point at.
	FinalOnly bool
}

// OK reports a clean run (nothing to bisect).
func (r *BisectResult) OK() bool { return r.Report.OK() }

// String renders the bisection for CLI output.
func (r *BisectResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bisect: seed=%d profile=%s\n", r.Seed, r.Profile)
	switch {
	case r.OK():
		b.WriteString("run is clean: nothing to bisect\n")
	case r.FinalOnly:
		b.WriteString("violations appear only in the final converged audit (no mid-run breach)\n")
	default:
		fmt.Fprintf(&b, "first violation recorded at %v\n", r.FailAt)
		for _, v := range r.First {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// Bisect runs the (seed, profile) chaos scenario and reads the first
// mid-run breach off the violation stamps, which are in time order.
func Bisect(seed int64, p Profile, cfg ChaosConfig) *BisectResult {
	res := &BisectResult{Seed: seed, Profile: p.Name, Report: RunChaos(seed, p, cfg)}
	if res.OK() {
		return res
	}
	vs := res.Report.Violations
	if vs[0].at > cfg.Horizon {
		res.FinalOnly = true
		return res
	}
	res.FailAt = vs[0].at
	for _, v := range vs {
		if v.at == res.FailAt {
			res.First = append(res.First, v)
		}
	}
	return res
}
