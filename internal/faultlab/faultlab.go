// Package faultlab is gridlab's deterministic fault-injection layer: it
// generates seed-driven fault schedules (node crashes, site outages,
// network partitions, loss and latency churn, clock-skewed certificate
// validation), injects them into a running core.Federation, and audits
// cross-stack invariants afterwards — the "what actually breaks" half of
// the paper's comparison that the steady-state experiments cannot see.
//
// Everything is reproducible: a (seed, profile) pair fully determines the
// schedule, and a schedule plus the scenario seed fully determines the
// run. That is what makes a sweep useful — the first violating (seed,
// profile) a SweepResult reports is a complete minimal repro.
package faultlab

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Kind enumerates injectable fault classes.
type Kind int

// The fault classes. NodeCrash is silent (discovered via soft state);
// SiteOutage is declared (management planes are notified, as when
// PlanetLab central support power-cycles a node).
const (
	NodeCrash Kind = iota
	SiteOutage
	NetPartition
	LossBurst
	LatencyChurn
	ClockSkew
)

var kindNames = [...]string{
	"node-crash", "site-outage", "partition", "loss-burst", "latency-churn", "clock-skew",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one scheduled fault: applied at At, revoked at At+Duration.
type Fault struct {
	Kind     Kind
	At       time.Duration
	Duration time.Duration
	// Site is the primary target; Peer the second endpoint for pair faults
	// (partitions, loss bursts, latency churn).
	Site string
	Peer string
	// Loss is the injected loss probability for LossBurst.
	Loss float64
	// Latency is the override for LatencyChurn.
	Latency time.Duration
	// Skew is the validation-clock drift for ClockSkew.
	Skew time.Duration
}

// String renders the fault compactly for traces and repro output.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s @%v +%v %s", f.Kind, f.At, f.Duration, f.Site)
	if f.Peer != "" {
		fmt.Fprintf(&b, "~%s", f.Peer)
	}
	switch f.Kind {
	case LossBurst:
		fmt.Fprintf(&b, " loss=%.2f", f.Loss)
	case LatencyChurn:
		fmt.Fprintf(&b, " lat=%v", f.Latency)
	case ClockSkew:
		fmt.Fprintf(&b, " skew=%v", f.Skew)
	}
	return b.String()
}

// Schedule is a reproducible fault plan.
type Schedule struct {
	Seed    int64
	Profile string
	Horizon time.Duration
	Faults  []Fault
}

// String renders the whole plan, one fault per line.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d profile=%s horizon=%v faults=%d\n",
		s.Seed, s.Profile, s.Horizon, len(s.Faults))
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Profile shapes a fault mix: per-class arrival rates (events per hour of
// virtual time) and severity knobs.
type Profile struct {
	Name string

	// Arrival rates, events/hour. Zero disables the class.
	CrashRate     float64
	OutageRate    float64
	PartitionRate float64
	LossRate      float64
	ChurnRate     float64
	SkewRate      float64

	// MeanDown is the mean crash/outage length; MeanCut the mean partition
	// length; MeanBurst the mean loss/churn/skew length.
	MeanDown  time.Duration
	MeanCut   time.Duration
	MeanBurst time.Duration

	// BurstLoss is the injected loss probability; ChurnLatency the latency
	// override; MaxSkew bounds the drawn certificate-clock drift.
	BurstLoss    float64
	ChurnLatency time.Duration
	MaxSkew      time.Duration

	// Hub, when set, joins the site pool for pair faults only — cutting a
	// site off from the VO center is the interesting partition.
	Hub string
}

// Quiet is the empty profile: Generate returns a schedule with no faults,
// which is how the metamorphic no-fault equivalence test is phrased.
func Quiet() Profile { return Profile{Name: "quiet"} }

// Profiles returns the built-in fault mixes gridlab chaos sweeps.
func Profiles() []Profile {
	return []Profile{
		{
			Name:      "crashes",
			CrashRate: 0.7, OutageRate: 0.7,
			MeanDown: 25 * time.Minute, MeanCut: 20 * time.Minute, MeanBurst: 10 * time.Minute,
			Hub: "vo-center",
		},
		{
			Name:          "partitions",
			PartitionRate: 1.0, LossRate: 0.8, ChurnRate: 0.8,
			MeanDown: 25 * time.Minute, MeanCut: 20 * time.Minute, MeanBurst: 10 * time.Minute,
			BurstLoss: 0.12, ChurnLatency: 400 * time.Millisecond,
			Hub: "vo-center",
		},
		{
			Name:      "mixed",
			CrashRate: 0.4, OutageRate: 0.4, PartitionRate: 0.5,
			LossRate: 0.4, ChurnRate: 0.4, SkewRate: 0.3,
			MeanDown: 25 * time.Minute, MeanCut: 20 * time.Minute, MeanBurst: 10 * time.Minute,
			BurstLoss: 0.12, ChurnLatency: 400 * time.Millisecond, MaxSkew: 48 * time.Hour,
			Hub: "vo-center",
		},
	}
}

// ProfileByName resolves a built-in profile ("quiet" included).
func ProfileByName(name string) (Profile, error) {
	if name == "quiet" {
		return Quiet(), nil
	}
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("faultlab: unknown profile %q", name)
}

// classSpec drives one Poisson arrival process inside Generate.
type classSpec struct {
	kind Kind
	rate float64 // events/hour
	mean time.Duration
	pair bool
}

// Generate draws a fault schedule for the profile over [0, horizon) using
// its own RNG — generation never touches an engine's random streams, so a
// fault-free (quiet) schedule provably cannot perturb the scenario it is
// injected into. The same (seed, profile, sites, horizon) always yields
// the same schedule.
func Generate(seed int64, p Profile, sites []string, horizon time.Duration) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, Profile: p.Name, Horizon: horizon}
	if len(sites) == 0 {
		return s
	}
	pairPool := sites
	if p.Hub != "" {
		pairPool = append(append([]string{}, sites...), p.Hub)
	}
	classes := []classSpec{
		{NodeCrash, p.CrashRate, p.MeanDown, false},
		{SiteOutage, p.OutageRate, p.MeanDown, false},
		{NetPartition, p.PartitionRate, p.MeanCut, true},
		{LossBurst, p.LossRate, p.MeanBurst, true},
		{LatencyChurn, p.ChurnRate, p.MeanBurst, true},
		{ClockSkew, p.SkewRate, p.MeanBurst, false},
	}
	for _, c := range classes {
		if c.rate <= 0 || c.mean <= 0 {
			continue
		}
		interval := time.Duration(float64(time.Hour) / c.rate)
		t := time.Duration(rng.ExpFloat64() * float64(interval))
		for t < horizon {
			dur := time.Duration(rng.ExpFloat64() * float64(c.mean))
			if dur < time.Minute {
				dur = time.Minute
			}
			if t+dur > horizon {
				dur = horizon - t
			}
			f := Fault{Kind: c.kind, At: t, Duration: dur}
			if c.pair {
				a := pairPool[rng.Intn(len(pairPool))]
				b := a
				for b == a {
					b = pairPool[rng.Intn(len(pairPool))]
				}
				f.Site, f.Peer = a, b
			} else {
				f.Site = sites[rng.Intn(len(sites))]
			}
			switch c.kind {
			case LossBurst:
				f.Loss = p.BurstLoss
			case LatencyChurn:
				f.Latency = p.ChurnLatency
			case ClockSkew:
				// Drift far enough to matter against multi-hour leases.
				f.Skew = time.Duration((0.25 + 0.75*rng.Float64()) * float64(p.MaxSkew))
			}
			s.Faults = append(s.Faults, f)
			t += time.Duration(rng.ExpFloat64() * float64(interval))
		}
	}
	sort.Slice(s.Faults, func(i, j int) bool {
		a, b := s.Faults[i], s.Faults[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Peer < b.Peer
	})
	return s
}
