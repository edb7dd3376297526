package faultlab

import (
	"testing"
	"time"
)

// shortLeaseConfig is the scenario where lease keepalive is load-bearing:
// 90-minute leases inside a 4-hour fault window, with a periodic repair
// pass so the no-resilience arm can at least limp back after each lapse.
func shortLeaseConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Horizon = 4 * time.Hour
	cfg.Lease = 90 * time.Minute
	cfg.ReconcileEvery = 15 * time.Minute
	return cfg
}

// The tentpole gate: on the same seeds, availability with renewal +
// breakers ON dominates OFF seed-by-seed and strictly in aggregate —
// the no-resilience arm loses every PoP each 90 minutes and waits for
// the next repair pass, the resilient arm renews in place.
func TestResilienceAvailabilityDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("dominance sweep is a long acceptance test")
	}
	off := shortLeaseConfig()
	on := shortLeaseConfig()
	on.Resilience = true
	p, _ := ProfileByName("mixed")
	var sumOn, sumOff float64
	lapsesOn, lapsesOff := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		a := RunChaos(seed, p, off)
		b := RunChaos(seed, p, on)
		if b.Availability < a.Availability {
			t.Errorf("seed %d: availability on %.4f < off %.4f", seed, b.Availability, a.Availability)
		}
		sumOn += b.Availability
		sumOff += a.Availability
		lapsesOn += b.LeaseLapses
		lapsesOff += a.LeaseLapses
	}
	if sumOn <= sumOff {
		t.Errorf("aggregate availability on %.4f not strictly above off %.4f", sumOn/20, sumOff/20)
	}
	if lapsesOn >= lapsesOff {
		t.Errorf("lease lapses on %d not below off %d", lapsesOn, lapsesOff)
	}
}

// The soak satellite: across 20 seeds, a healthy site never loses a
// lease (quiet runs renew forever with zero lapses), every invariant —
// lease continuity included — holds under the mixed profile, and every
// breaker is closed again after HealAll plus the converge window.
func TestChaosResilienceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak sweep is a long acceptance test")
	}
	cfg := shortLeaseConfig()
	cfg.Resilience = true
	mixed, _ := ProfileByName("mixed")
	for seed := int64(1); seed <= 20; seed++ {
		quiet := RunChaos(seed, Quiet(), cfg)
		if !quiet.OK() {
			t.Errorf("seed %d quiet: %v", seed, quiet.Violations)
		}
		if quiet.LeaseLapses != 0 {
			t.Errorf("seed %d quiet: %d leases lapsed on healthy sites", seed, quiet.LeaseLapses)
		}
		if quiet.Resilience == nil || quiet.Resilience.Renewals == 0 {
			t.Errorf("seed %d quiet: keepalive never renewed", seed)
		}

		rep := RunChaos(seed, mixed, cfg)
		if !rep.OK() {
			t.Errorf("seed %d mixed: %v (repro: %s)", seed, rep.Violations, rep.Repro())
		}
		if rep.Resilience == nil {
			t.Fatalf("seed %d mixed: no resilience stats", seed)
		}
		if open := rep.Resilience.OpenSites; len(open) != 0 {
			t.Errorf("seed %d mixed: breakers still open after heal: %v", seed, open)
		}
	}
}

// Sweep aggregates feed the EXPERIMENTS evidence table.
func TestSweepAggregatesAvailability(t *testing.T) {
	cfg := shortLeaseConfig()
	cfg.Resilience = true
	res := sweep(1, 2, []Profile{Quiet()}, cfg)
	if res.Runs != 2 {
		t.Fatalf("Runs = %d", res.Runs)
	}
	if res.AvailabilitySum <= 0 || res.AvailabilitySum > 2 {
		t.Errorf("AvailabilitySum = %v", res.AvailabilitySum)
	}
	if res.LeaseLapses != 0 {
		t.Errorf("LeaseLapses = %d on quiet runs", res.LeaseLapses)
	}
}

// Teeth for the continuity checker: Repro must also carry the flags
// needed to rebuild the configuration.
func TestReproCarriesResilienceFlags(t *testing.T) {
	cfg := shortLeaseConfig()
	cfg.Resilience = true
	rep := RunChaos(3, Quiet(), cfg)
	want := "gridlab chaos -seed 3 -profile quiet -resilience -lease 1h30m0s -reconcile 15m0s"
	if got := rep.Repro(); got != want {
		t.Errorf("Repro() = %q, want %q", got, want)
	}
}
