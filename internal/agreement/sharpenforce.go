package agreement

import (
	"fmt"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
)

// SharpEnforcement realizes the paper's §6 recommendation to Globus:
// "the WS-Agreement protocol can be used as vehicle to experiment with
// global schedulers based on delegating the right to consume resources,
// building on PlanetLab experience using SHARP." An agreement's terms
// are committed by issuing a SHARP ticket at the site authority and
// redeeming it immediately into a hard lease; the agreement's Observed
// period is exactly the lease's validity.
//
// Recognized numeric term: "cpu" (cores). The agreement Lifetime bounds
// the claim interval.
type SharpEnforcement struct {
	Authority *sharp.Authority
	// Holder is the principal the ticket is issued to (the agreement
	// responder acts as its own service manager).
	Holder *identity.Principal
	// Clock supplies virtual time.
	Clock interface{ Now() time.Duration }
}

// sharpHandle pairs the lease with its authority for release.
type sharpHandle struct {
	lease *sharp.Lease
}

// Commit issues and immediately redeems a ticket for the offer's cpu
// term. Oversubscription conflicts surface here as commit failures —
// i.e. as WS-Agreement rejections, which is precisely the layering the
// paper sketches.
func (e *SharpEnforcement) Commit(o Offer) (any, error) {
	cpuAmt, ok := o.Terms["cpu"]
	if !ok || cpuAmt <= 0 {
		return nil, fmt.Errorf("agreement: offer needs a positive cpu term")
	}
	life := o.Lifetime
	if life == 0 {
		life = 24 * time.Hour
	}
	now := e.Clock.Now()
	tk, err := e.Authority.IssueTicket(e.Holder.Name, e.Holder.Public(), capability.CPU, cpuAmt, now, now+life)
	if err != nil {
		return nil, err
	}
	lease, err := e.Authority.Redeem(tk)
	if err != nil {
		return nil, err
	}
	return sharpHandle{lease: lease}, nil
}

// Release returns the lease's resources to the site.
func (e *SharpEnforcement) Release(handle any) {
	h, ok := handle.(sharpHandle)
	if !ok {
		return
	}
	e.Authority.ReleaseLease(h.lease)
}
