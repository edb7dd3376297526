package agreement

import (
	"fmt"
	"math"
	"time"

	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/sim"
)

// CapabilityEnforcement backs agreements with PlanetLab-style capability
// minting — the concrete form of "a capability is in fact an implied
// agreement: the issuer of the capability agrees to provide some specified
// resources during a specified time interval to the capability holder."
//
// Recognized numeric terms: "cpu" (dedicated cores), "net" (dedicated
// bytes/s), "mem" (bytes), "disk" (bytes). The agreement Lifetime becomes
// the capabilities' validity interval.
type CapabilityEnforcement struct {
	Eng *sim.Engine
	NM  *capability.NodeManager
}

var termType = map[string]capability.ResourceType{
	"cpu":  capability.CPU,
	"net":  capability.Network,
	"mem":  capability.Memory,
	"disk": capability.Disk,
}

// Commit mints one dedicated capability per recognized term; on any
// failure it releases the partial set and reports the error.
func (e *CapabilityEnforcement) Commit(o Offer) (any, error) {
	life := o.Lifetime
	if life == 0 {
		life = 24 * time.Hour
	}
	now := e.Eng.Now()
	var minted []capability.ID
	rollback := func() {
		for _, id := range minted {
			e.NM.Release(id)
		}
	}
	// Deterministic term order.
	for _, name := range []string{"cpu", "net", "mem", "disk"} {
		amt, ok := o.Terms[name]
		if !ok || amt <= 0 {
			continue
		}
		c, err := e.NM.Mint(capability.MintRequest{
			Type:      termType[name],
			Amount:    amt,
			Dedicated: true,
			NotBefore: now,
			NotAfter:  now + life,
		})
		if err != nil {
			rollback()
			return nil, err
		}
		minted = append(minted, c.ID)
	}
	if len(minted) == 0 {
		return nil, fmt.Errorf("agreement: offer names no enforceable terms")
	}
	return minted, nil
}

// Release returns the minted capabilities to the node pool.
func (e *CapabilityEnforcement) Release(handle any) {
	ids, ok := handle.([]capability.ID)
	if !ok {
		return
	}
	for _, id := range ids {
		e.NM.Release(id)
	}
}

// Capabilities extracts the minted capability IDs from a commit handle
// (consumers bind these to VMs).
func Capabilities(handle any) []capability.ID {
	ids, _ := handle.([]capability.ID)
	return ids
}

// BatchEnforcement backs agreements with advance reservations on a batch
// queue — the other enforcement backend the paper names. Recognized
// terms: "slots" (count), "start" (seconds of virtual time), "duration"
// (seconds).
type BatchEnforcement struct {
	BM *gram.BatchManager
}

// Commit admits a reservation for the offer's window. Terms are wire
// floats: slots must be a whole number an int32 holds, start and
// duration must fit a time.Duration (sim.CheckedDuration).
func (e *BatchEnforcement) Commit(o Offer) (any, error) {
	slots := o.Terms["slots"]
	if !(slots >= 1 && slots <= math.MaxInt32) || slots != math.Trunc(slots) {
		return nil, fmt.Errorf("%w: slots=%v is not a positive whole number", ErrConstraint, slots)
	}
	start, startOK := sim.CheckedDuration(o.Terms["start"] * float64(time.Second))
	dur, durOK := sim.CheckedDuration(o.Terms["duration"] * float64(time.Second))
	if !startOK || !durOK || dur <= 0 {
		return nil, fmt.Errorf("%w: start=%v duration=%v is not a window", ErrConstraint, o.Terms["start"], o.Terms["duration"])
	}
	id, err := e.BM.Reserve(start, dur, int(slots))
	if err != nil {
		return nil, err
	}
	return id, nil
}

// Release cancels the underlying reservation (claimed reservations are
// owned by their job and stay).
func (e *BatchEnforcement) Release(handle any) {
	id, ok := handle.(string)
	if !ok {
		return
	}
	// CancelReservation fails for claimed reservations; that is correct —
	// the claiming job now owns the slots.
	_ = e.BM.CancelReservation(id)
}

// ReservationID extracts the reservation handle for job submission.
func ReservationID(handle any) string {
	id, _ := handle.(string)
	return id
}
