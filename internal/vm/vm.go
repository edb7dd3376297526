// Package vm implements PlanetLab's node abstraction: "The main
// abstraction offered by a PlanetLab node is a virtual machine (VM): each
// user of a PlanetLab node is presented with the image of a raw, dedicated
// machine ... PlanetLab provides its users with a virtual container at
// each host to act as a 'point of presence' for a service."
//
// A VM accumulates resource capabilities (minted by the node's
// capability.NodeManager), redeems them at Start, and enforces the
// resulting envelope through a silk.Context. A Slice is the distributed
// set of VMs a service holds across nodes — "a distributed virtual
// machine with a relatively low-level system abstraction, in the form of
// (a distributed set of) virtual containers and a familiar Unix-style
// API".
package vm

import (
	"errors"
	"fmt"

	"repro/internal/capability"
	"repro/internal/silk"
	"repro/internal/sim"
)

// Lifecycle errors.
var (
	ErrWrongState = errors.New("vm: operation invalid in current state")
	ErrNoCtx      = errors.New("vm: not started")
)

// State is the VM lifecycle state.
type State int

// VM lifecycle states.
const (
	Created State = iota // capabilities may be bound
	Running              // silk context live
	Stopped              // torn down
	Failed               // Start failed (e.g. port conflict)
)

var stateNames = [...]string{"created", "running", "stopped", "failed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// VM is one virtual container on one node.
type VM struct {
	Name string
	Node *silk.Node

	nm    *capability.NodeManager
	state State
	caps  []*capability.Capability
	ctx   *silk.Context
	// FailReason records why Start failed.
	FailReason error
}

// New creates a VM on node, whose capability ledger is nm.
func New(name string, node *silk.Node, nm *capability.NodeManager) *VM {
	return &VM{Name: name, Node: node, nm: nm}
}

// State returns the lifecycle state.
func (v *VM) State() State { return v.state }

// Bind redeems a capability at the node manager and attaches its resource
// claim to the VM. Only legal before Start. A capability for a different
// node is rejected.
func (v *VM) Bind(id capability.ID) error {
	if v.state != Created {
		return fmt.Errorf("%w: bind in %v", ErrWrongState, v.state)
	}
	c, err := v.nm.Bind(id)
	if err != nil {
		return err
	}
	if c.Node != v.Node.Name {
		return fmt.Errorf("vm: capability for node %q bound on %q", c.Node, v.Node.Name)
	}
	v.caps = append(v.caps, c)
	return nil
}

// envelope folds the bound capabilities into a silk context spec plus the
// port list to claim.
func (v *VM) envelope() (silk.ContextSpec, []int) {
	spec := silk.ContextSpec{}
	var ports []int
	for _, c := range v.caps {
		switch c.Type {
		case capability.CPU:
			if c.Dedicated {
				spec.DedicatedCores += c.Amount
			} else {
				spec.CPUShares += c.Amount
			}
		case capability.Network:
			if c.Dedicated {
				spec.DedicatedNetBps += c.Amount
			} else if c.Amount > spec.NetRateBps {
				spec.NetRateBps = c.Amount
			}
		case capability.Memory:
			spec.MemBytes += c.Amount
		case capability.Disk:
			spec.DiskBytes += c.Amount
		case capability.Port:
			ports = append(ports, c.PortNum)
		case capability.FileDescriptors:
			spec.MaxFDs += int(c.Amount)
		}
	}
	return spec, ports
}

// Start materializes the VM: creates the enforcement context from the
// bound envelope and claims its ports. On any failure every acquired
// resource is released and the VM enters Failed.
func (v *VM) Start() error {
	if v.state != Created {
		return fmt.Errorf("%w: start in %v", ErrWrongState, v.state)
	}
	spec, ports := v.envelope()
	ctx, err := v.Node.NewContext(v.Name, spec)
	if err != nil {
		v.fail(err)
		return err
	}
	for _, p := range ports {
		if err := ctx.OpenPort(p); err != nil {
			ctx.Close()
			v.fail(err)
			return err
		}
	}
	v.ctx = ctx
	v.state = Running
	return nil
}

func (v *VM) fail(err error) {
	v.state = Failed
	v.FailReason = err
	v.releaseCaps()
}

func (v *VM) releaseCaps() {
	for _, c := range v.caps {
		v.nm.Release(c.ID)
	}
	v.caps = nil
}

// Stop tears down a running VM, killing its tasks and returning all
// capability-backed resources to the node.
func (v *VM) Stop() error {
	if v.state != Running {
		return fmt.Errorf("%w: stop in %v", ErrWrongState, v.state)
	}
	v.ctx.Close()
	v.ctx = nil
	v.releaseCaps()
	v.state = Stopped
	return nil
}

// Ctx returns the live enforcement context, or an error when not running.
// Callers use it for the Unix-style API surface: RunTask, OpenPort,
// WriteDisk, OpenFD, AllowSend.
func (v *VM) Ctx() (*silk.Context, error) {
	if v.state != Running {
		return nil, ErrNoCtx
	}
	return v.ctx, nil
}

// Exec runs coreSeconds of CPU work in the VM.
func (v *VM) Exec(name string, coreSeconds float64, onDone func()) (*sim.FluidConsumer, error) {
	ctx, err := v.Ctx()
	if err != nil {
		return nil, err
	}
	return ctx.RunTask(name, coreSeconds, onDone)
}

// Slice is a service's distributed set of VMs — its points of presence.
type Slice struct {
	Name string
	vms  map[string]*VM // node name -> VM
}

// NewSlice returns an empty slice.
func NewSlice(name string) *Slice {
	return &Slice{Name: name, vms: make(map[string]*VM)}
}

// Add registers a VM under its node's name. One VM per node per slice,
// matching PlanetLab's model.
func (s *Slice) Add(v *VM) error {
	if _, dup := s.vms[v.Node.Name]; dup {
		return fmt.Errorf("vm: slice %q already has a VM on %q", s.Name, v.Node.Name)
	}
	s.vms[v.Node.Name] = v
	return nil
}

// VM returns the slice's VM on a node, or nil.
func (s *Slice) VM(node string) *VM { return s.vms[node] }

// StopAll stops every running VM.
func (s *Slice) StopAll() {
	for _, v := range s.vms {
		if v.State() == Running {
			v.Stop()
		}
	}
}

// Running counts VMs currently in the Running state.
func (s *Slice) Running() int {
	n := 0
	for _, v := range s.vms {
		if v.State() == Running {
			n++
		}
	}
	return n
}
