package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestExpMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += Exp(rng, time.Minute)
	}
	mean := total / n
	if mean < 55*time.Second || mean > 65*time.Second {
		t.Errorf("mean = %v, want ~1m", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var xs []time.Duration
	for i := 0; i < 10001; i++ {
		xs = append(xs, LogNormal(rng, time.Hour, 1.0))
	}
	// Median of samples ≈ configured median.
	count := 0
	for _, x := range xs {
		if x < time.Hour {
			count++
		}
	}
	frac := float64(count) / float64(len(xs))
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestZipfHeadHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 1.3, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50]*5 {
		t.Errorf("head %d not dominant over mid %d", counts[0], counts[50])
	}
}

func TestZipfClampsExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := NewZipf(rng, 0.5, 10) // must not panic despite s<=1
	for i := 0; i < 100; i++ {
		if r := z.Draw(); r < 0 || r >= 10 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

// gridJobs is an hour-scale profile of modestly parallel jobs.
var gridJobs = GridJobConfig{MeanInterarrival: 10 * time.Minute, MedianRun: time.Hour,
	RunSigma: 1, MaxCount: 16, WallFactor: 2}

func TestGenerateGridJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	jobs := GenerateGridJobs(rng, gridJobs, 200)
	if len(jobs) != 200 {
		t.Fatalf("n = %d", len(jobs))
	}
	prev := time.Duration(-1)
	for _, j := range jobs {
		if j.Arrival <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		prev = j.Arrival
		if j.Run < time.Second {
			t.Errorf("run %v too small", j.Run)
		}
		if j.Wall < j.Run {
			t.Errorf("wall %v < run %v", j.Wall, j.Run)
		}
		if j.Count < 1 || j.Count > 16 || j.Count&(j.Count-1) != 0 {
			t.Errorf("count %d not a power of two <= 16", j.Count)
		}
	}
}

func TestGridJobRSLParses(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	jobs := GenerateGridJobs(rng, gridJobs, 5)
	for _, j := range jobs {
		rslStr := j.RSL()
		if rslStr == "" {
			t.Fatal("empty RSL")
		}
		// Shape check without importing rsl (avoid cycle temptation):
		if rslStr[0] != '&' {
			t.Errorf("RSL = %q", rslStr)
		}
	}
}

func TestGenerateNetServices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultNetServices()
	svcs := GenerateNetServices(rng, cfg, 300)
	if len(svcs) != 300 {
		t.Fatalf("n = %d", len(svcs))
	}
	portCounts := map[int]int{}
	for _, s := range svcs {
		if s.Sites < 1 || s.Sites > cfg.MaxSites {
			t.Errorf("sites = %d", s.Sites)
		}
		if s.Port < cfg.BasePort || s.Port >= cfg.BasePort+cfg.PortCount {
			t.Errorf("port = %d", s.Port)
		}
		if s.CPUPerSite <= 0 || s.CPUPerSite > 0.2 {
			t.Errorf("cpu = %v (services must be CPU-light)", s.CPUPerSite)
		}
		if s.Lifetime < time.Minute {
			t.Errorf("lifetime = %v", s.Lifetime)
		}
		portCounts[s.Port]++
	}
	// Popularity must be skewed: the hottest port sees many services.
	max := 0
	for _, c := range portCounts {
		if c > max {
			max = c
		}
	}
	if max < 30 {
		t.Errorf("hottest port only %d services; Zipf skew missing", max)
	}
}

// Unit property beyond TestDeterminism in cmd/gridlab: the job and service generators are functions of their rng alone.
func TestDeterminism(t *testing.T) {
	a := GenerateGridJobs(rand.New(rand.NewSource(9)), gridJobs, 50)
	b := GenerateGridJobs(rand.New(rand.NewSource(9)), gridJobs, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("grid jobs nondeterministic")
		}
	}
	s1 := GenerateNetServices(rand.New(rand.NewSource(9)), DefaultNetServices(), 50)
	s2 := GenerateNetServices(rand.New(rand.NewSource(9)), DefaultNetServices(), 50)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("services nondeterministic")
		}
	}
}
