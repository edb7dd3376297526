// Package workload generates the two application populations §3.2
// contrasts: "Grid applications are often compute-intensive" with heavy
// CPU demand and modest network use, while "PlanetLab services are
// generally network-intensive and rarely have significant CPU demands" —
// long-lived, widely distributed, bandwidth-hungry. Generators are seeded
// and deterministic; arrival processes are Poisson, service times
// lognormal, and popularity Zipfian (driving the E6 port-contention
// experiment).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Exp draws an exponential variate with the given mean.
func Exp(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// LogNormal draws a lognormal variate with the given median and sigma
// (shape); median = exp(mu).
func LogNormal(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	mu := math.Log(float64(median))
	return time.Duration(math.Exp(mu + sigma*rng.NormFloat64()))
}

// Zipf draws ranks in [0, n) with exponent s (heavier head for larger s).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over n items.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if s <= 1 {
		s = 1.01 // rand.Zipf requires s > 1
	}
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// GridJob is one compute-intensive job.
type GridJob struct {
	ID string
	// Arrival is the submission offset from the workload start.
	Arrival time.Duration
	// Run is the true execution time at full allocation.
	Run time.Duration
	// Wall is the user's declared limit (Run padded by a safety factor —
	// users overestimate, which is what makes backfill matter).
	Wall time.Duration
	// Count is the requested slot count (power of two, as in cluster
	// traces).
	Count int
}

// RSL renders the job's GRAM description.
func (j GridJob) RSL() string {
	return fmt.Sprintf(`&(executable=/bin/app)(count=%d)(maxWallTime=%d)`, j.Count, int(j.Wall.Seconds()))
}

// GridJobConfig shapes a compute workload.
type GridJobConfig struct {
	// MeanInterarrival spaces Poisson arrivals.
	MeanInterarrival time.Duration
	// MedianRun and RunSigma shape the lognormal run times.
	MedianRun time.Duration
	RunSigma  float64
	// MaxCount bounds slot requests (counts are 2^k <= MaxCount).
	MaxCount int
	// WallFactor pads Run into the declared wall limit (>= 1).
	WallFactor float64
}

// GenerateGridJobs produces n jobs with increasing arrival offsets.
func GenerateGridJobs(rng *rand.Rand, cfg GridJobConfig, n int) []GridJob {
	if cfg.WallFactor < 1 {
		cfg.WallFactor = 1
	}
	jobs := make([]GridJob, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += Exp(rng, cfg.MeanInterarrival)
		run := LogNormal(rng, cfg.MedianRun, cfg.RunSigma)
		if run < time.Second {
			run = time.Second
		}
		count := 1 << rng.Intn(bits(cfg.MaxCount))
		jobs = append(jobs, GridJob{
			ID:      fmt.Sprintf("job-%04d", i),
			Arrival: at,
			Run:     run,
			Wall:    time.Duration(float64(run) * cfg.WallFactor),
			Count:   count,
		})
	}
	return jobs
}

func bits(max int) int {
	n := 0
	for 1<<n <= max {
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}

// NetService is one long-lived network-intensive service deployment.
type NetService struct {
	ID string
	// Arrival is the deployment offset.
	Arrival time.Duration
	// Lifetime is how long the service stays deployed.
	Lifetime time.Duration
	// Sites is how many points of presence it wants.
	Sites int
	// RateBps is the per-site bandwidth appetite.
	RateBps float64
	// Port is the well-known port the service wants everywhere (Zipf:
	// popular services collide — the E6 contention driver).
	Port int
	// CPUPerSite is deliberately small (fractions of a core).
	CPUPerSite float64
}

// NetServiceConfig shapes a PlanetLab-style service population.
type NetServiceConfig struct {
	MeanInterarrival time.Duration
	MedianLifetime   time.Duration
	LifetimeSigma    float64
	// MaxSites bounds the requested spread.
	MaxSites int
	// BasePort and PortCount define the port universe; PortZipf shapes
	// popularity.
	BasePort  int
	PortCount int
	PortZipf  float64
	// MeanRateBps is the mean per-site bandwidth demand.
	MeanRateBps float64
}

// DefaultNetServices mirrors §3.2's service catalogue (CDNs, overlays,
// measurement, DHTs): long-lived, many vantage points, light CPU.
func DefaultNetServices() NetServiceConfig {
	return NetServiceConfig{
		MeanInterarrival: 30 * time.Minute,
		MedianLifetime:   24 * time.Hour,
		LifetimeSigma:    1.2,
		MaxSites:         20,
		BasePort:         3000,
		PortCount:        50,
		PortZipf:         1.3,
		MeanRateBps:      2e5,
	}
}

// GenerateNetServices produces n service descriptions.
func GenerateNetServices(rng *rand.Rand, cfg NetServiceConfig, n int) []NetService {
	zipf := NewZipf(rng, cfg.PortZipf, cfg.PortCount)
	out := make([]NetService, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += Exp(rng, cfg.MeanInterarrival)
		life := LogNormal(rng, cfg.MedianLifetime, cfg.LifetimeSigma)
		if life < time.Minute {
			life = time.Minute
		}
		sites := 1 + rng.Intn(cfg.MaxSites)
		out = append(out, NetService{
			ID:         fmt.Sprintf("svc-%04d", i),
			Arrival:    at,
			Lifetime:   life,
			Sites:      sites,
			RateBps:    rng.ExpFloat64() * cfg.MeanRateBps,
			Port:       cfg.BasePort + zipf.Draw(),
			CPUPerSite: 0.05 + 0.1*rng.Float64(),
		})
	}
	return out
}
