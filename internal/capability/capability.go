// Package capability implements PlanetLab's resource-usage-delegation
// mechanism [Chun & Spalink, PDN-03-13]: "resource capabilities represent
// time-limited claims over low-level resources available at a node or
// site: fair-share or dedicated use for CPU, network, memory, disk,
// network ports, file descriptors. A local resource manager keeps track of
// resources available at a node and hands over capabilities to brokers
// that operate at the VO level. A PlanetLab capability is represented by a
// 160-bit opaque identifier."
//
// Capabilities here are bearer tokens: whoever presents the 160-bit
// identifier holds the claim (services may wrap them in their own
// authentication, which the paper notes PlanetLab does not standardize).
// The NodeManager is the per-node ledger; enforcement on bind is delegated
// to a silk.Context created from the capability's resource envelope.
package capability

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sim"
)

// ResourceType enumerates the low-level resource classes the paper lists.
type ResourceType int

// The capability resource classes.
const (
	CPU             ResourceType = iota // core fraction (dedicated) or shares (fair-share)
	Network                             // bytes/second
	Memory                              // bytes
	Disk                                // bytes
	Port                                // one specific port number
	FileDescriptors                     // count
)

var typeNames = map[ResourceType]string{
	CPU: "cpu", Network: "net", Memory: "mem", Disk: "disk",
	Port: "port", FileDescriptors: "fds",
}

func (r ResourceType) String() string {
	if s, ok := typeNames[r]; ok {
		return s
	}
	return fmt.Sprintf("ResourceType(%d)", int(r))
}

// Errors returned by the node manager.
var (
	ErrUnknownCapability = errors.New("capability: unknown or forged identifier")
	ErrExpiredCapability = errors.New("capability: claim interval not current")
	ErrInsufficient      = errors.New("capability: insufficient uncommitted resources")
	ErrAlreadyBound      = errors.New("capability: already bound")
	ErrSplitTooLarge     = errors.New("capability: split exceeds capability amount")
	ErrRevokedCapability = errors.New("capability: revoked")
	ErrNotDivisible      = errors.New("capability: resource type is not divisible")
	ErrPortTaken         = errors.New("capability: port already claimed")
)

// ID is the 160-bit opaque capability identifier.
type ID [20]byte

// String renders a short hex prefix for logs.
func (id ID) String() string {
	return fmt.Sprintf("%x", id[:6])
}

// Capability is a time-limited claim over a low-level resource at a node.
type Capability struct {
	ID        ID
	Node      string
	Type      ResourceType
	Amount    float64 // meaning depends on Type; 1 for Port
	PortNum   int     // valid when Type == Port
	Dedicated bool    // guaranteed (admission-controlled) vs fair-share
	NotBefore time.Duration
	NotAfter  time.Duration
}

// CurrentAt reports whether the claim interval covers t.
func (c *Capability) CurrentAt(t time.Duration) bool {
	return t >= c.NotBefore && t < c.NotAfter
}

// Clock abstracts virtual time so the package depends only on sim
// indirectly (any engine works).
type Clock interface{ Now() time.Duration }

// NodeManager is the local resource manager of one PlanetLab node: it
// tracks node capacity, mints capabilities against uncommitted capacity,
// and redeems/binds them.
type NodeManager struct {
	Node string

	clock Clock
	rng   *rand.Rand

	capacity  map[ResourceType]float64 // dedicated-committable capacity
	committed map[ResourceType]float64 // dedicated amounts promised
	ports     map[int]ID               // port -> holding capability
	caps      map[ID]*Capability
	bound     map[ID]bool
	revoked   map[ID]bool

	// Minted and Bound count operations for experiment accounting.
	Minted, BoundN uint64
}

// NewNodeManager creates a ledger for a node with the given dedicated
// capacities. Fair-share CPU/network claims are not admission-controlled
// (they only carry scheduling weight), matching PlanetLab's default
// best-effort regime.
func NewNodeManager(node string, clock Clock, rng *rand.Rand, capacity map[ResourceType]float64) *NodeManager {
	capCopy := make(map[ResourceType]float64, len(capacity))
	for k, v := range capacity {
		capCopy[k] = v
	}
	return &NodeManager{
		Node:      node,
		clock:     clock,
		rng:       rng,
		capacity:  capCopy,
		committed: make(map[ResourceType]float64),
		ports:     make(map[int]ID),
		caps:      make(map[ID]*Capability),
		bound:     make(map[ID]bool),
		revoked:   make(map[ID]bool),
	}
}

func (m *NodeManager) newID() ID {
	var id ID
	for i := range id {
		id[i] = byte(m.rng.Intn(256))
	}
	return id
}

// Available returns the uncommitted dedicated capacity for a type.
func (m *NodeManager) Available(t ResourceType) float64 {
	return m.capacity[t] - m.committed[t]
}

// MintRequest describes a capability to mint.
type MintRequest struct {
	Type      ResourceType
	Amount    float64
	PortNum   int
	Dedicated bool
	NotBefore time.Duration
	NotAfter  time.Duration
}

// Mint issues a capability. Dedicated requests are admission-controlled
// against uncommitted capacity; fair-share requests always succeed (they
// are scheduling weights, not guarantees). Port requests claim a specific
// port FCFS.
func (m *NodeManager) Mint(req MintRequest) (*Capability, error) {
	if req.NotAfter <= req.NotBefore {
		return nil, fmt.Errorf("capability: empty interval [%v,%v)", req.NotBefore, req.NotAfter)
	}
	switch req.Type {
	case Port:
		if _, taken := m.ports[req.PortNum]; taken {
			return nil, fmt.Errorf("%w: %d", ErrPortTaken, req.PortNum)
		}
		req.Amount = 1
		req.Dedicated = true
	default:
		// Both tests are written so NaN fails: one NaN added to committed
		// makes Available NaN, and "Available < amount" then admits anything.
		if !(req.Amount > 0 && req.Amount <= math.MaxFloat64) {
			return nil, fmt.Errorf("capability: amount %v must be positive and finite", req.Amount)
		}
		if req.Dedicated && !(req.Amount <= m.Available(req.Type)) {
			return nil, fmt.Errorf("%w: %s want %.2f free %.2f",
				ErrInsufficient, req.Type, req.Amount, m.Available(req.Type))
		}
	}
	c := &Capability{
		ID:        m.newID(),
		Node:      m.Node,
		Type:      req.Type,
		Amount:    req.Amount,
		PortNum:   req.PortNum,
		Dedicated: req.Dedicated,
		NotBefore: req.NotBefore,
		NotAfter:  req.NotAfter,
	}
	if req.Dedicated && req.Type != Port {
		m.committed[req.Type] += req.Amount
	}
	if req.Type == Port {
		m.ports[req.PortNum] = c.ID
	}
	m.caps[c.ID] = c
	m.Minted++
	return c, nil
}

// lookup validates an ID and returns the live capability.
func (m *NodeManager) lookup(id ID) (*Capability, error) {
	if m.revoked[id] {
		return nil, ErrRevokedCapability
	}
	c, ok := m.caps[id]
	if !ok {
		return nil, ErrUnknownCapability
	}
	return c, nil
}

// Split divides a divisible capability into one of the requested amount
// and the remainder, invalidating the original — this is the fine-grained
// "ability of each site/node to delegate resource usage rights to multiple
// brokers at fine granularity".
func (m *NodeManager) Split(id ID, amount float64) (part, rest *Capability, err error) {
	c, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	if c.Type == Port {
		return nil, nil, ErrNotDivisible
	}
	if m.bound[id] {
		return nil, nil, ErrAlreadyBound
	}
	if !(amount > 0 && amount < c.Amount) {
		return nil, nil, fmt.Errorf("%w: %v of %v", ErrSplitTooLarge, amount, c.Amount)
	}
	mk := func(amt float64) *Capability {
		nc := *c
		nc.ID = m.newID()
		nc.Amount = amt
		m.caps[nc.ID] = &nc
		return &nc
	}
	part, rest = mk(amount), mk(c.Amount-amount)
	delete(m.caps, id) // original is consumed
	return part, rest, nil
}

// Verify checks that an ID names a live, current capability (a broker or
// buyer calls this before paying for a transferred capability).
func (m *NodeManager) Verify(id ID) (*Capability, error) {
	c, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if !c.CurrentAt(m.clock.Now()) {
		return nil, ErrExpiredCapability
	}
	return c, nil
}

// Bind redeems a capability, marking it consumed by a VM. The returned
// capability tells the caller what envelope to enforce (via silk). A
// capability binds at most once.
func (m *NodeManager) Bind(id ID) (*Capability, error) {
	c, err := m.Verify(id)
	if err != nil {
		return nil, err
	}
	if m.bound[id] {
		return nil, ErrAlreadyBound
	}
	m.bound[id] = true
	m.BoundN++
	return c, nil
}

// Extend pushes a live capability's NotAfter out to a later time — the
// hard-state half of a SHARP lease renewal. The committed amount is
// unchanged, so no admission check is needed: the claim keeps the
// resources it already holds, just for longer. Shrinking (or failing to
// extend) the interval is rejected.
func (m *NodeManager) Extend(id ID, notAfter time.Duration) error {
	c, err := m.lookup(id)
	if err != nil {
		return err
	}
	if now := m.clock.Now(); now >= c.NotAfter {
		return fmt.Errorf("%w: lapsed at %v, now %v", ErrExpiredCapability, c.NotAfter, now)
	}
	if notAfter <= c.NotAfter {
		return fmt.Errorf("capability: extend to %v does not pass current %v", notAfter, c.NotAfter)
	}
	c.NotAfter = notAfter
	return nil
}

// Release returns a bound or outstanding capability's resources to the
// pool and forgets it.
func (m *NodeManager) Release(id ID) {
	c, ok := m.caps[id]
	if !ok {
		return
	}
	if c.Dedicated && c.Type != Port {
		m.committed[c.Type] -= c.Amount
	}
	if c.Type == Port {
		delete(m.ports, c.PortNum)
	}
	delete(m.caps, id)
	delete(m.bound, id)
}

// Revoke invalidates a capability without waiting for expiry ("by
// allowing PlanetLab administrators 'root' access on individual nodes" —
// central administrators can always reclaim).
func (m *NodeManager) Revoke(id ID) {
	m.revoked[id] = true
	m.Release(id)
}

// ExpireSweep releases every capability whose interval has passed; call
// periodically (e.g. from a sim.Ticker).
func (m *NodeManager) ExpireSweep() int {
	now := m.clock.Now()
	var dead []ID
	for id, c := range m.caps {
		if now >= c.NotAfter {
			dead = append(dead, id)
		}
	}
	// Deterministic order for reproducible traces.
	sort.Slice(dead, func(i, j int) bool {
		return string(dead[i][:]) < string(dead[j][:])
	})
	for _, id := range dead {
		m.Release(id)
	}
	return len(dead)
}

// Outstanding returns the number of live capabilities.
func (m *NodeManager) Outstanding() int { return len(m.caps) }

// Sweeper runs ExpireSweep on a fixed period using any ticker-capable
// engine (matching sim.Engine's NewTicker), so expired claims return to
// the pool without manual housekeeping.
type tickerEngine interface {
	NewTicker(period time.Duration, fn func()) *sim.Ticker
}

// AttachSweeper starts periodic expiry sweeps and returns the ticker so
// callers can stop it.
func (m *NodeManager) AttachSweeper(eng tickerEngine, period time.Duration) *sim.Ticker {
	return eng.NewTicker(period, func() { m.ExpireSweep() })
}
