package simnet

import (
	"fmt"
	"reflect"
)

// checkLegs reports the first way a leg free list fails its contract, for
// the network's boxed legs and then every Serve endpoint's typed legs: a
// pooled leg that still holds a message or a body, a leg listed twice, or
// a leg left in the backing array past the list's length, where it would
// pin whatever it last carried. With drained (nothing in flight) every leg
// a pool ever made must also be back on its list.
func (n *Network) checkLegs(drained bool) error {
	if err := n.legs.check(drained); err != nil {
		return fmt.Errorf("boxed legs: %w", err)
	}
	for name, h := range n.hosts {
		for svc, ep := range h.endpoints {
			if p, ok := ep.(interface{ check(bool) error }); ok {
				if err := p.check(drained); err != nil {
					return fmt.Errorf("%s %s legs: %w", name, svc, err)
				}
			}
		}
	}
	return nil
}

func (e *typed[Req, Resp]) check(drained bool) error { return e.legs.check(drained) }

func (p *legPool[T]) check(drained bool) error {
	seen := make(map[*leg[T]]bool, len(p.free))
	for i, l := range p.free {
		switch {
		case seen[l]:
			return fmt.Errorf("leg %d is on the free list twice", i)
		case !reflect.ValueOf(l.m).IsZero():
			return fmt.Errorf("pooled leg %d still holds a message to %v", i, l.m.to)
		case !reflect.ValueOf(&l.body).Elem().IsZero():
			return fmt.Errorf("pooled leg %d still holds a body %v", i, l.body)
		case l.pool != p:
			return fmt.Errorf("pooled leg %d belongs to another pool", i)
		}
		seen[l] = true
	}
	for i, l := range p.free[len(p.free):cap(p.free)] {
		if l != nil {
			return fmt.Errorf("free list's backing array holds a leg at %d, past its length %d", len(p.free)+i, len(p.free))
		}
	}
	if drained && len(p.free) != p.made {
		return fmt.Errorf("%d legs made, %d back on the free list after the drain", p.made, len(p.free))
	}
	return nil
}
