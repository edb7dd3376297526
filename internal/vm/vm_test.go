package vm

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/silk"
	"repro/internal/sim"
)

const hour = time.Hour

type fixture struct {
	eng  *sim.Engine
	node *silk.Node
	nm   *capability.NodeManager
}

func newFixture() *fixture {
	eng := sim.NewEngine(1)
	node := silk.NewNode(eng, "n1", silk.NodeSpec{Cores: 2, MemBytes: 1000, DiskBytes: 1000, NetBps: 1000, MaxFDs: 64})
	nm := capability.NewNodeManager("n1", eng, rand.New(rand.NewSource(2)), map[capability.ResourceType]float64{
		capability.CPU: 2, capability.Network: 1000, capability.Memory: 1000, capability.Disk: 1000,
	})
	return &fixture{eng: eng, node: node, nm: nm}
}

func (f *fixture) mint(t *testing.T, req capability.MintRequest) *capability.Capability {
	t.Helper()
	if req.NotAfter == 0 {
		req.NotAfter = hour
	}
	c, err := f.nm.Mint(req)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestVMLifecycle(t *testing.T) {
	f := newFixture()
	v := New("svc", f.node, f.nm)
	if v.State() != Created {
		t.Fatalf("state = %v", v.State())
	}
	cpu := f.mint(t, capability.MintRequest{Type: capability.CPU, Amount: 1, Dedicated: true})
	if err := v.Bind(cpu.ID); err != nil {
		t.Fatal(err)
	}
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	if v.State() != Running {
		t.Fatalf("state = %v", v.State())
	}
	var done time.Duration
	if _, err := v.Exec("t", 5, func() { done = f.eng.Now() }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	// 1 dedicated core → 5 core-seconds take 5s.
	if done != 5*time.Second {
		t.Errorf("task done at %v, want 5s", done)
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	if v.State() != Stopped {
		t.Errorf("state = %v", v.State())
	}
}

func TestBindAfterStartRejected(t *testing.T) {
	f := newFixture()
	v := New("svc", f.node, f.nm)
	v.Start()
	c := f.mint(t, capability.MintRequest{Type: capability.Memory, Amount: 10})
	if err := v.Bind(c.ID); !errors.Is(err, ErrWrongState) {
		t.Errorf("bind after start: %v", err)
	}
}

func TestBindForgedCapability(t *testing.T) {
	f := newFixture()
	v := New("svc", f.node, f.nm)
	var forged capability.ID
	if err := v.Bind(forged); !errors.Is(err, capability.ErrUnknownCapability) {
		t.Errorf("forged bind: %v", err)
	}
}

func TestBindWrongNode(t *testing.T) {
	f := newFixture()
	otherNM := capability.NewNodeManager("n2", f.eng, rand.New(rand.NewSource(3)), nil)
	v := New("svc", f.node, otherNM)
	c, err := otherNM.Mint(capability.MintRequest{Type: capability.Memory, Amount: 10, NotAfter: hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Bind(c.ID); err == nil {
		t.Error("cross-node capability accepted")
	}
}

func TestCapabilityBindsOnceAcrossVMs(t *testing.T) {
	f := newFixture()
	c := f.mint(t, capability.MintRequest{Type: capability.Memory, Amount: 10})
	v1 := New("a", f.node, f.nm)
	v2 := New("b", f.node, f.nm)
	if err := v1.Bind(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := v2.Bind(c.ID); !errors.Is(err, capability.ErrAlreadyBound) {
		t.Errorf("double bind across VMs: %v", err)
	}
}

func TestPortConflictFailsStart(t *testing.T) {
	f := newFixture()
	p1 := f.mint(t, capability.MintRequest{Type: capability.Port, PortNum: 80})
	v1 := New("a", f.node, f.nm)
	v1.Bind(p1.ID)
	if err := v1.Start(); err != nil {
		t.Fatal(err)
	}
	// The node manager refuses to mint port 80 again (FCFS at mint time).
	if _, err := f.nm.Mint(capability.MintRequest{Type: capability.Port, PortNum: 80, NotAfter: hour}); !errors.Is(err, capability.ErrPortTaken) {
		t.Fatalf("second mint: %v", err)
	}
	// Stop releases the port for re-minting.
	v1.Stop()
	if _, err := f.nm.Mint(capability.MintRequest{Type: capability.Port, PortNum: 80, NotAfter: hour}); err != nil {
		t.Errorf("mint after stop: %v", err)
	}
}

func TestStartFailureReleasesCapabilities(t *testing.T) {
	f := newFixture()
	// Occupy all node memory directly so Start's context creation fails.
	blocker, err := f.node.NewContext("blocker", silk.ContextSpec{MemBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_ = blocker
	mem := f.mint(t, capability.MintRequest{Type: capability.Memory, Amount: 500})
	v := New("svc", f.node, f.nm)
	v.Bind(mem.ID)
	if err := v.Start(); err == nil {
		t.Fatal("start succeeded with node memory exhausted")
	}
	if v.State() != Failed || v.FailReason == nil {
		t.Errorf("state=%v reason=%v", v.State(), v.FailReason)
	}
	// The capability's dedicated amount must be back in the pool.
	if got := f.nm.Available(capability.Memory); got != 1000 {
		t.Errorf("Available(Memory) = %v, want 1000", got)
	}
}

func TestEnvelopeAccumulation(t *testing.T) {
	f := newFixture()
	v := New("svc", f.node, f.nm)
	v.Bind(f.mint(t, capability.MintRequest{Type: capability.CPU, Amount: 0.5, Dedicated: true}).ID)
	v.Bind(f.mint(t, capability.MintRequest{Type: capability.CPU, Amount: 0.5, Dedicated: true}).ID)
	v.Bind(f.mint(t, capability.MintRequest{Type: capability.Disk, Amount: 300}).ID)
	v.Bind(f.mint(t, capability.MintRequest{Type: capability.FileDescriptors, Amount: 8}).ID)
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, err := v.Ctx()
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Spec.DedicatedCores != 1.0 {
		t.Errorf("DedicatedCores = %v, want 1.0", ctx.Spec.DedicatedCores)
	}
	if ctx.Spec.DiskBytes != 300 || ctx.Spec.MaxFDs != 8 {
		t.Errorf("spec = %+v", ctx.Spec)
	}
	// Disk quota enforced from capability.
	if err := ctx.WriteDisk(301); !errors.Is(err, silk.ErrDiskQuota) {
		t.Errorf("quota: %v", err)
	}
}

func TestExecBeforeStart(t *testing.T) {
	f := newFixture()
	v := New("svc", f.node, f.nm)
	if _, err := v.Exec("t", 1, nil); !errors.Is(err, ErrNoCtx) {
		t.Errorf("exec before start: %v", err)
	}
}

func TestStopKillsTasks(t *testing.T) {
	f := newFixture()
	v := New("svc", f.node, f.nm)
	v.Start()
	fired := false
	v.Exec("t", 1000, func() { fired = true })
	f.eng.Schedule(time.Second, func() { v.Stop() })
	f.eng.Run()
	if fired {
		t.Error("task survived Stop")
	}
}

func TestDoubleStartStop(t *testing.T) {
	f := newFixture()
	v := New("svc", f.node, f.nm)
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	if err := v.Start(); !errors.Is(err, ErrWrongState) {
		t.Errorf("double start: %v", err)
	}
	v.Stop()
	if err := v.Stop(); !errors.Is(err, ErrWrongState) {
		t.Errorf("double stop: %v", err)
	}
}

func TestSlice(t *testing.T) {
	f := newFixture()
	node2 := silk.NewNode(f.eng, "n2", silk.NodeSpec{Cores: 2, MemBytes: 1000, DiskBytes: 1000, NetBps: 1000, MaxFDs: 64})
	nm2 := capability.NewNodeManager("n2", f.eng, rand.New(rand.NewSource(4)), nil)

	s := NewSlice("cdn")
	v1 := New("cdn@n1", f.node, f.nm)
	v2 := New("cdn@n2", node2, nm2)
	if err := s.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(New("dup", f.node, f.nm)); err == nil {
		t.Error("duplicate node in slice accepted")
	}
	for _, v := range []*VM{v1, v2} {
		if err := v.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Running() != 2 {
		t.Errorf("Running=%d", s.Running())
	}
	if s.VM("n1") != v1 || s.VM("nope") != nil {
		t.Error("VM lookup wrong")
	}
	s.StopAll()
	if s.Running() != 0 {
		t.Errorf("Running=%d after StopAll", s.Running())
	}
}

func TestStateString(t *testing.T) {
	if Created.String() != "created" || Failed.String() != "failed" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state empty")
	}
}
