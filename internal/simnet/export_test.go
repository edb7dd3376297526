package simnet

import (
	"fmt"
	"reflect"
)

// checkLegs reports the first way the leg free list fails its contract:
// a pooled leg that still holds a message, a leg listed twice, or a leg
// left in the backing array past the list's length, where it would pin
// whatever it last carried. With drained (nothing in flight) every leg
// ever made must also be back on the list.
func (n *Network) checkLegs(drained bool) error {
	seen := make(map[*leg]bool, len(n.legs))
	for i, l := range n.legs {
		switch {
		case seen[l]:
			return fmt.Errorf("leg %d is on the free list twice", i)
		case !reflect.ValueOf(l.m).IsZero():
			return fmt.Errorf("pooled leg %d still holds a message to %v", i, l.m.to)
		}
		seen[l] = true
	}
	for i, l := range n.legs[len(n.legs):cap(n.legs)] {
		if l != nil {
			return fmt.Errorf("free list's backing array holds a leg at %d, past its length %d", len(n.legs)+i, len(n.legs))
		}
	}
	if drained && len(n.legs) != n.nlegs {
		return fmt.Errorf("%d legs made, %d back on the free list after the drain", n.nlegs, len(n.legs))
	}
	return nil
}
