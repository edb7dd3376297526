// Package silk models the OS-level resource-control layer PlanetLab relies
// on ("SILK, a Linux kernel module, is the OS-level mechanism that
// supports and enforces capabilities" — Bavier et al.). It provides, per
// node, the fine-grained controls the paper enumerates for capabilities:
// "fair-share or dedicated use for CPU, network, memory, disk, network
// ports, file descriptors".
//
// A Node owns the physical resources; a Context is the enforcement domain
// of one virtual machine on the node. CPU is scheduled with weighted
// proportional sharing (the fluid analogue of stride/lottery scheduling,
// cf. resource containers [Banga et al. 1999] and Scout); network egress
// is policed by a token bucket; disk and memory are quota-counted; ports
// and file descriptors are exclusive integer resources allocated
// first-come-first-served — which is exactly the behaviour E6 measures
// ("resources that cannot be shared (e.g., network ports) are allocated
// on a first-come-first-served basis").
package silk

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// Enforcement errors.
var (
	ErrPortInUse     = errors.New("silk: port already bound")
	ErrPortNotOwned  = errors.New("silk: port not owned by this context")
	ErrDiskQuota     = errors.New("silk: disk quota exceeded")
	ErrMemoryLimit   = errors.New("silk: memory limit exceeded")
	ErrFDLimit       = errors.New("silk: file descriptor limit exceeded")
	ErrCPUOverCommit = errors.New("silk: dedicated CPU exceeds node capacity")
	ErrNetOverCommit = errors.New("silk: dedicated bandwidth exceeds node capacity")
	ErrContextClosed = errors.New("silk: context closed")
)

// NodeSpec describes a node's physical resources.
type NodeSpec struct {
	Cores     float64 // CPU capacity in core-seconds per second
	MemBytes  float64
	DiskBytes float64
	NetBps    float64 // egress capacity policed by token buckets
	MaxFDs    int     // per-context default FD limit
}

// DefaultPlanetLabNode mirrors the era's standard PlanetLab hardware:
// "Intel-based desktop and server configurations".
func DefaultPlanetLabNode() NodeSpec {
	return NodeSpec{
		Cores:     2,
		MemBytes:  2 << 30,  // 2 GiB
		DiskBytes: 80 << 30, // 80 GB
		NetBps:    12.5e6,   // 100 Mb/s
		MaxFDs:    1024,
	}
}

// Node is one machine's enforcement state.
type Node struct {
	Name string
	Spec NodeSpec

	eng      *sim.Engine
	cpu      *sim.FluidSystem
	shared   *sim.FluidResource // CPU left after dedicated carve-outs
	ports    map[int]*Context
	memUsed  float64
	diskUsed float64

	dedicatedCPU float64
	dedicatedNet float64
	contexts     map[*Context]struct{}
}

// NewNode creates a node with the given spec.
func NewNode(eng *sim.Engine, name string, spec NodeSpec) *Node {
	n := &Node{
		Name:     name,
		Spec:     spec,
		eng:      eng,
		cpu:      sim.NewFluidSystem(eng),
		ports:    make(map[int]*Context),
		contexts: make(map[*Context]struct{}),
	}
	n.shared = n.cpu.NewResource(name+"/cpu", spec.Cores)
	return n
}

// ContextSpec is the resource envelope for one VM's context.
type ContextSpec struct {
	// CPUShares weights fair-share CPU (default 1).
	CPUShares float64
	// DedicatedCores, when > 0, carves a guaranteed CPU slice out of the
	// node; the context's tasks then run against that slice alone.
	DedicatedCores float64
	// NetRateBps caps egress via a token bucket; 0 inherits a fair share
	// of the node (spec.NetBps / #contexts recomputed lazily is avoided:
	// 0 simply means uncapped by silk, capped by access links in simnet).
	NetRateBps float64
	// DedicatedNetBps reserves guaranteed egress (admission-controlled).
	DedicatedNetBps float64
	MemBytes        float64
	DiskBytes       float64
	MaxFDs          int // 0 -> node default
}

// Context is a VM's enforcement domain on a node.
type Context struct {
	Name string
	Spec ContextSpec

	node      *Node
	cpuSlice  *sim.FluidResource // non-nil when dedicated
	bucket    *TokenBucket
	memUsed   float64
	diskUsed  float64
	fdsUsed   int
	ports     []int
	closed    bool
	cpuUsed   float64 // accumulated core-seconds, for accounting
	running   map[*sim.FluidConsumer]struct{}
	ConflictN int // port-conflict count, for E6 accounting
}

// NewContext admission-controls and creates an enforcement context.
func (n *Node) NewContext(name string, spec ContextSpec) (*Context, error) {
	if spec.CPUShares <= 0 {
		spec.CPUShares = 1
	}
	if spec.MaxFDs == 0 {
		spec.MaxFDs = n.Spec.MaxFDs
	}
	if spec.DedicatedCores > 0 && n.dedicatedCPU+spec.DedicatedCores > n.Spec.Cores {
		return nil, fmt.Errorf("%w: want %.2f, free %.2f", ErrCPUOverCommit,
			spec.DedicatedCores, n.Spec.Cores-n.dedicatedCPU)
	}
	if spec.DedicatedNetBps > 0 && n.dedicatedNet+spec.DedicatedNetBps > n.Spec.NetBps {
		return nil, fmt.Errorf("%w: want %.0f, free %.0f", ErrNetOverCommit,
			spec.DedicatedNetBps, n.Spec.NetBps-n.dedicatedNet)
	}
	if spec.MemBytes > 0 && n.memUsed+spec.MemBytes > n.Spec.MemBytes {
		return nil, fmt.Errorf("%w: want %.0f, free %.0f", ErrMemoryLimit,
			spec.MemBytes, n.Spec.MemBytes-n.memUsed)
	}
	c := &Context{Name: name, Spec: spec, node: n, running: make(map[*sim.FluidConsumer]struct{})}
	if spec.DedicatedCores > 0 {
		n.dedicatedCPU += spec.DedicatedCores
		n.shared.SetCapacity(n.Spec.Cores - n.dedicatedCPU)
		c.cpuSlice = n.cpu.NewResource(n.Name+"/"+name+"/cpu", spec.DedicatedCores)
	}
	if spec.DedicatedNetBps > 0 {
		n.dedicatedNet += spec.DedicatedNetBps
	}
	rate := spec.NetRateBps
	if spec.DedicatedNetBps > 0 && (rate == 0 || rate > spec.DedicatedNetBps) {
		rate = spec.DedicatedNetBps
	}
	if rate > 0 {
		c.bucket = NewTokenBucket(n.eng, rate, rate/4) // 250ms burst
	}
	if spec.MemBytes > 0 {
		n.memUsed += spec.MemBytes
	}
	n.contexts[c] = struct{}{}
	return c, nil
}

// Close tears the context down, releasing every held resource.
func (c *Context) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, p := range c.ports {
		delete(c.node.ports, p)
	}
	c.ports = nil
	for t := range c.running {
		c.node.cpu.Remove(t)
	}
	c.running = nil
	if c.cpuSlice != nil {
		c.cpuSlice.SetCapacity(0)
		c.node.dedicatedCPU -= c.Spec.DedicatedCores
		c.node.shared.SetCapacity(c.node.Spec.Cores - c.node.dedicatedCPU)
	}
	if c.Spec.DedicatedNetBps > 0 {
		c.node.dedicatedNet -= c.Spec.DedicatedNetBps
	}
	if c.Spec.MemBytes > 0 {
		c.node.memUsed -= c.Spec.MemBytes
	}
	c.node.diskUsed -= c.diskUsed
	c.diskUsed = 0
	delete(c.node.contexts, c)
}

// RunTask executes coreSeconds of CPU work under the context's scheduling
// class and invokes onDone at completion. Fair-share tasks compete on the
// node's shared CPU weighted by CPUShares; dedicated contexts run on their
// carved-out slice.
func (c *Context) RunTask(name string, coreSeconds float64, onDone func()) (*sim.FluidConsumer, error) {
	if c.closed {
		return nil, ErrContextClosed
	}
	res := c.node.shared
	if c.cpuSlice != nil {
		res = c.cpuSlice
	}
	var t *sim.FluidConsumer
	t = &sim.FluidConsumer{
		Name:   c.Name + "/" + name,
		Weight: c.Spec.CPUShares,
		OnDone: func() {
			delete(c.running, t)
			c.cpuUsed += coreSeconds
			if onDone != nil {
				onDone()
			}
		},
	}
	c.node.cpu.Add(t, coreSeconds, res)
	c.running[t] = struct{}{}
	return t, nil
}

// KillTask aborts a running task without its completion callback.
func (c *Context) KillTask(t *sim.FluidConsumer) {
	if _, ok := c.running[t]; ok {
		c.node.cpu.Remove(t)
		delete(c.running, t)
	}
}

// CPUUsed returns accumulated core-seconds of completed work.
func (c *Context) CPUUsed() float64 { return c.cpuUsed }

// OpenPort binds a TCP/UDP port exclusively, first-come-first-served.
func (c *Context) OpenPort(port int) error {
	if c.closed {
		return ErrContextClosed
	}
	if owner, taken := c.node.ports[port]; taken {
		c.ConflictN++
		return fmt.Errorf("%w: %d held by %s", ErrPortInUse, port, owner.Name)
	}
	c.node.ports[port] = c
	c.ports = append(c.ports, port)
	return nil
}

// ClosePort releases a port the context owns.
func (c *Context) ClosePort(port int) error {
	if c.node.ports[port] != c {
		return fmt.Errorf("%w: %d", ErrPortNotOwned, port)
	}
	delete(c.node.ports, port)
	for i, p := range c.ports {
		if p == port {
			c.ports = append(c.ports[:i], c.ports[i+1:]...)
			break
		}
	}
	return nil
}

// WriteDisk charges bytes against the context quota and node disk.
func (c *Context) WriteDisk(bytes float64) error {
	if c.closed {
		return ErrContextClosed
	}
	if c.Spec.DiskBytes > 0 && c.diskUsed+bytes > c.Spec.DiskBytes {
		return fmt.Errorf("%w: used %.0f + %.0f > quota %.0f", ErrDiskQuota, c.diskUsed, bytes, c.Spec.DiskBytes)
	}
	if c.node.diskUsed+bytes > c.node.Spec.DiskBytes {
		return fmt.Errorf("%w: node disk full", ErrDiskQuota)
	}
	c.diskUsed += bytes
	c.node.diskUsed += bytes
	return nil
}

// FreeDisk releases previously written bytes.
func (c *Context) FreeDisk(bytes float64) {
	if bytes > c.diskUsed {
		bytes = c.diskUsed
	}
	c.diskUsed -= bytes
	c.node.diskUsed -= bytes
}

// DiskUsed returns the context's current disk usage.
func (c *Context) DiskUsed() float64 { return c.diskUsed }

// OpenFD allocates a file descriptor slot.
func (c *Context) OpenFD() error {
	if c.closed {
		return ErrContextClosed
	}
	if c.fdsUsed >= c.Spec.MaxFDs {
		return fmt.Errorf("%w: %d", ErrFDLimit, c.Spec.MaxFDs)
	}
	c.fdsUsed++
	return nil
}

// CloseFD releases a descriptor slot.
func (c *Context) CloseFD() {
	if c.fdsUsed > 0 {
		c.fdsUsed--
	}
}

// AllowSend polices egress through the context's token bucket; with no
// bucket configured it always admits. It returns false when the send must
// be delayed (callers typically retry after WaitTime).
func (c *Context) AllowSend(bytes float64) bool {
	if c.bucket == nil {
		return true
	}
	return c.bucket.Take(bytes)
}

// SendWait returns how long until bytes would be admitted.
func (c *Context) SendWait(bytes float64) time.Duration {
	if c.bucket == nil {
		return 0
	}
	return c.bucket.Wait(bytes)
}

// NetRateBps returns the context's policed egress rate (0 = uncapped),
// used by upper layers as the flow rate limit.
func (c *Context) NetRateBps() float64 {
	if c.bucket == nil {
		return 0
	}
	return c.bucket.rate
}

// Contexts returns the number of live contexts on the node.
func (n *Node) Contexts() int { return len(n.contexts) }

// ContextList returns the live contexts sorted by name, for deterministic
// audits of the node's enforcement state.
func (n *Node) ContextList() []*Context {
	out := make([]*Context, 0, len(n.contexts))
	for c := range n.contexts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PortsInUse returns the number of bound ports on the node.
func (n *Node) PortsInUse() int { return len(n.ports) }

// PortBindings returns the node's port table as port -> owning context
// name (the kernel-side view invariant checkers cross-examine against the
// per-context port lists).
func (n *Node) PortBindings() map[int]string {
	out := make(map[int]string, len(n.ports))
	for p, c := range n.ports {
		out[p] = c.Name
	}
	return out
}

// Ports returns a copy of the ports the context currently holds.
func (c *Context) Ports() []int {
	out := make([]int, len(c.ports))
	copy(out, c.ports)
	return out
}

// TokenBucket is a classic token bucket in virtual time.
type TokenBucket struct {
	eng    *sim.Engine
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Duration
}

// NewTokenBucket returns a full bucket with the given rate and burst.
func NewTokenBucket(eng *sim.Engine, rate, burst float64) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("silk: token bucket rate %v burst %v must be positive", rate, burst))
	}
	return &TokenBucket{eng: eng, rate: rate, burst: burst, tokens: burst, last: eng.Now()}
}

func (b *TokenBucket) refill() {
	now := b.eng.Now()
	b.tokens += b.rate * (now - b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Take consumes n tokens if available, reporting success.
func (b *TokenBucket) Take(n float64) bool {
	b.refill()
	if b.tokens >= n {
		b.tokens -= n
		return true
	}
	return false
}

// Wait returns the time until n tokens will be available (0 if now).
func (b *TokenBucket) Wait(n float64) time.Duration {
	b.refill()
	if b.tokens >= n {
		return 0
	}
	need := n - b.tokens
	return time.Duration(need / b.rate * float64(time.Second))
}
