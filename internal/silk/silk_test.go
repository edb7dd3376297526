package silk

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

func newNode(t *testing.T) (*sim.Engine, *Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := NewNode(eng, "n1", NodeSpec{Cores: 2, MemBytes: 1000, DiskBytes: 1000, NetBps: 1000, MaxFDs: 4})
	return eng, n
}

func TestFairShareCPU(t *testing.T) {
	eng, n := newNode(t)
	c1, err := n.NewContext("vm1", ContextSpec{CPUShares: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := n.NewContext("vm2", ContextSpec{CPUShares: 1})
	var d1, d2 time.Duration
	c1.RunTask("t", 2, func() { d1 = eng.Now() }) // 2 core-seconds
	c2.RunTask("t", 2, func() { d2 = eng.Now() })
	eng.Run()
	// 2 cores split evenly: each gets 1 core → 2s each.
	if d1 != 2*time.Second || d2 != 2*time.Second {
		t.Errorf("completions %v %v, want 2s both", d1, d2)
	}
	if c1.CPUUsed() != 2 {
		t.Errorf("CPUUsed = %v, want 2", c1.CPUUsed())
	}
}

func TestWeightedShares(t *testing.T) {
	eng, n := newNode(t)
	heavy, _ := n.NewContext("heavy", ContextSpec{CPUShares: 3})
	light, _ := n.NewContext("light", ContextSpec{CPUShares: 1})
	var dh, dl time.Duration
	heavy.RunTask("t", 3, func() { dh = eng.Now() })
	light.RunTask("t", 3, func() { dl = eng.Now() })
	eng.Run()
	// heavy: 1.5 cores → 2s. light: 0.5 cores for 2s (1 cs), then 2 cores → +1s = 3s.
	if dh != 2*time.Second {
		t.Errorf("heavy at %v, want 2s", dh)
	}
	if dl != 3*time.Second {
		t.Errorf("light at %v, want 3s", dl)
	}
}

func TestDedicatedCPUIsolation(t *testing.T) {
	eng, n := newNode(t)
	ded, err := n.NewContext("ded", ContextSpec{DedicatedCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	fair, _ := n.NewContext("fair", ContextSpec{CPUShares: 1})
	var dd, df time.Duration
	ded.RunTask("t", 5, func() { dd = eng.Now() })
	fair.RunTask("t", 5, func() { df = eng.Now() })
	eng.Run()
	// Dedicated: exactly 1 core → 5s regardless of the other context.
	if dd != 5*time.Second {
		t.Errorf("dedicated at %v, want 5s", dd)
	}
	// Fair context has the remaining 1 core to itself → 5s too.
	if df != 5*time.Second {
		t.Errorf("fair at %v, want 5s", df)
	}
}

func TestDedicatedAdmissionControl(t *testing.T) {
	_, n := newNode(t)
	if _, err := n.NewContext("a", ContextSpec{DedicatedCores: 1.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewContext("b", ContextSpec{DedicatedCores: 1}); !errors.Is(err, ErrCPUOverCommit) {
		t.Errorf("overcommit: %v", err)
	}
	if _, err := n.NewContext("c", ContextSpec{DedicatedCores: 0.5}); err != nil {
		t.Errorf("exact fit: %v", err)
	}
}

func TestDedicatedNetAdmission(t *testing.T) {
	_, n := newNode(t)
	if _, err := n.NewContext("a", ContextSpec{DedicatedNetBps: 800}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewContext("b", ContextSpec{DedicatedNetBps: 300}); !errors.Is(err, ErrNetOverCommit) {
		t.Errorf("net overcommit: %v", err)
	}
}

func TestMemoryAdmission(t *testing.T) {
	_, n := newNode(t)
	if _, err := n.NewContext("a", ContextSpec{MemBytes: 800}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewContext("b", ContextSpec{MemBytes: 300}); !errors.Is(err, ErrMemoryLimit) {
		t.Errorf("mem overcommit: %v", err)
	}
}

func TestContextCloseReleasesResources(t *testing.T) {
	eng, n := newNode(t)
	c, _ := n.NewContext("a", ContextSpec{DedicatedCores: 1.5, MemBytes: 800, DedicatedNetBps: 800})
	if err := c.OpenPort(80); err != nil {
		t.Fatal(err)
	}
	fired := false
	c.RunTask("t", 100, func() { fired = true })
	c.Close()
	eng.Run()
	if fired {
		t.Error("task completed after Close")
	}
	if c.OpenPort(81) == nil {
		t.Error("OpenPort on closed context succeeded")
	}
	// Everything is reusable now.
	c2, err := n.NewContext("b", ContextSpec{DedicatedCores: 1.5, MemBytes: 800, DedicatedNetBps: 800})
	if err != nil {
		t.Fatalf("resources not released: %v", err)
	}
	if err := c2.OpenPort(80); err != nil {
		t.Errorf("port not released: %v", err)
	}
	c.Close() // idempotent
}

func TestPortsFCFS(t *testing.T) {
	_, n := newNode(t)
	a, _ := n.NewContext("a", ContextSpec{})
	b, _ := n.NewContext("b", ContextSpec{})
	if err := a.OpenPort(80); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenPort(80); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("second bind: %v", err)
	}
	if b.ConflictN != 1 {
		t.Errorf("ConflictN = %d, want 1", b.ConflictN)
	}
	if err := a.ClosePort(80); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenPort(80); err != nil {
		t.Errorf("bind after release: %v", err)
	}
	if err := a.ClosePort(80); !errors.Is(err, ErrPortNotOwned) {
		t.Errorf("close unowned: %v", err)
	}
	if n.PortsInUse() != 1 {
		t.Errorf("PortsInUse = %d", n.PortsInUse())
	}
}

func TestDiskQuota(t *testing.T) {
	_, n := newNode(t)
	c, _ := n.NewContext("a", ContextSpec{DiskBytes: 100})
	if err := c.WriteDisk(60); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteDisk(60); !errors.Is(err, ErrDiskQuota) {
		t.Errorf("quota: %v", err)
	}
	c.FreeDisk(30)
	if err := c.WriteDisk(60); err != nil {
		t.Errorf("after free: %v", err)
	}
	if got := c.DiskUsed(); got != 90 {
		t.Errorf("DiskUsed = %v, want 90", got)
	}
	// Over-free clamps to zero.
	c.FreeDisk(1e9)
	if c.DiskUsed() != 0 {
		t.Errorf("DiskUsed after over-free = %v", c.DiskUsed())
	}
}

func TestNodeDiskExhaustion(t *testing.T) {
	_, n := newNode(t) // node disk 1000
	a, _ := n.NewContext("a", ContextSpec{})
	b, _ := n.NewContext("b", ContextSpec{})
	if err := a.WriteDisk(900); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteDisk(200); !errors.Is(err, ErrDiskQuota) {
		t.Errorf("node-level exhaustion: %v", err)
	}
}

func TestFDLimit(t *testing.T) {
	_, n := newNode(t)
	c, _ := n.NewContext("a", ContextSpec{MaxFDs: 2})
	if err := c.OpenFD(); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenFD(); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenFD(); !errors.Is(err, ErrFDLimit) {
		t.Errorf("fd limit: %v", err)
	}
	c.CloseFD()
	if err := c.OpenFD(); err != nil {
		t.Errorf("after close: %v", err)
	}
}

func TestFDDefaultFromNode(t *testing.T) {
	_, n := newNode(t) // MaxFDs 4
	c, _ := n.NewContext("a", ContextSpec{})
	for i := 0; i < 4; i++ {
		if err := c.OpenFD(); err != nil {
			t.Fatalf("fd %d: %v", i, err)
		}
	}
	if err := c.OpenFD(); !errors.Is(err, ErrFDLimit) {
		t.Errorf("default limit: %v", err)
	}
}

func TestRunTaskOnClosedContext(t *testing.T) {
	_, n := newNode(t)
	c, _ := n.NewContext("a", ContextSpec{})
	c.Close()
	if _, err := c.RunTask("t", 1, nil); !errors.Is(err, ErrContextClosed) {
		t.Errorf("closed: %v", err)
	}
}

func TestTokenBucket(t *testing.T) {
	eng := sim.NewEngine(1)
	b := NewTokenBucket(eng, 100, 50) // 100 B/s, 50 burst
	if !b.Take(50) {
		t.Fatal("full bucket refused burst")
	}
	if b.Take(1) {
		t.Fatal("empty bucket granted")
	}
	if w := b.Wait(10); w != 100*time.Millisecond {
		t.Errorf("Wait(10) = %v, want 100ms", w)
	}
	eng.RunUntil(100 * time.Millisecond)
	if !b.Take(10) {
		t.Error("refilled bucket refused")
	}
	// Refill caps at burst.
	eng.RunUntil(10 * time.Second)
	if b.Take(51) {
		t.Error("bucket exceeded burst capacity")
	}
	if !b.Take(50) {
		t.Error("bucket below burst after long idle")
	}
}

func TestContextTokenBucketPolicing(t *testing.T) {
	eng, n := newNode(t)
	c, _ := n.NewContext("a", ContextSpec{NetRateBps: 100})
	if c.NetRateBps() != 100 {
		t.Errorf("NetRateBps = %v", c.NetRateBps())
	}
	// Burst is rate/4 = 25 bytes.
	if !c.AllowSend(25) {
		t.Fatal("burst refused")
	}
	if c.AllowSend(25) {
		t.Fatal("post-burst granted")
	}
	if w := c.SendWait(25); w != 250*time.Millisecond {
		t.Errorf("SendWait = %v, want 250ms", w)
	}
	eng.RunUntil(250 * time.Millisecond)
	if !c.AllowSend(25) {
		t.Error("after refill refused")
	}
}

func TestUncappedContextAllowsAll(t *testing.T) {
	_, n := newNode(t)
	c, _ := n.NewContext("a", ContextSpec{})
	if !c.AllowSend(1e12) || c.SendWait(1e12) != 0 {
		t.Error("uncapped context policed")
	}
}

func TestDedicatedNetCapsRate(t *testing.T) {
	_, n := newNode(t)
	c, _ := n.NewContext("a", ContextSpec{DedicatedNetBps: 500})
	if c.NetRateBps() != 500 {
		t.Errorf("dedicated net rate = %v, want 500", c.NetRateBps())
	}
}

func TestDefaultPlanetLabNode(t *testing.T) {
	s := DefaultPlanetLabNode()
	if s.Cores <= 0 || s.NetBps <= 0 || s.MaxFDs <= 0 {
		t.Errorf("bad default spec %+v", s)
	}
}

// contextListRef is the list the builder built before the reader: the
// live contexts, sorted by name.
func contextListRef(live map[*Context]bool) []*Context {
	var out []*Context
	for c := range live {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EachContext visits the contexts the old sorted copy held, in name
// order, also after one closes and another opens between walks; EachPort
// and PortOwner read what Ports and PortBindings copied.
func TestContextReadersMatchCopies(t *testing.T) {
	_, n := newNode(t)
	live := make(map[*Context]bool)
	open := func(name string, ports ...int) *Context {
		c, err := n.NewContext(name, ContextSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ports {
			if err := c.OpenPort(p); err != nil {
				t.Fatal(err)
			}
		}
		live[c] = true
		return c
	}
	check := func(step string) {
		t.Helper()
		var got []*Context
		n.EachContext(func(c *Context) { got = append(got, c) })
		if want := contextListRef(live); !slices.Equal(got, want) {
			t.Fatalf("%s: EachContext visited %d contexts out of order, want %d", step, len(got), len(want))
		}
		for _, c := range got {
			var ports []int
			c.EachPort(func(p int) { ports = append(ports, p) })
			if !slices.Equal(ports, c.ports) {
				t.Errorf("%s: %s EachPort = %v, want %v", step, c.Name, ports, c.ports)
			}
		}
		for p, owner := range n.ports {
			if n.PortOwner(p) != owner {
				t.Errorf("%s: PortOwner(%d) = %v, want %s", step, p, n.PortOwner(p), owner.Name)
			}
		}
		if n.PortOwner(1) != nil {
			t.Errorf("%s: unbound port has an owner", step)
		}
	}
	open("vm3", 8080)
	mid := open("vm1", 22, 80)
	open("vm2")
	check("opened")
	mid.Close()
	delete(live, mid)
	open("vm0", 443)
	check("closed vm1, opened vm0")
	if n.Contexts() != len(live) {
		t.Errorf("Contexts() = %d, want %d", n.Contexts(), len(live))
	}
}
