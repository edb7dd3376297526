package sim

import (
	"fmt"
	"math"
	"slices"
)

// cancelled reports whether the event was cancelled and has not yet been
// reclaimed by the kernel; a swept or recycled handle reports false.
func (e Event) cancelled() bool {
	// The bounds check is not paranoia: a Fork can rewind the engine to a
	// point where this handle's node had not been allocated yet.
	if e.eng == nil || int(e.idx) >= len(e.eng.nodes) {
		return false
	}
	nd := &e.eng.nodes[e.idx]
	return nd.gen == e.gen && nd.fire == nil
}

// Rate returns the consumer's allocated rate in units/second.
func (c *FluidConsumer) Rate() float64 { return c.rate }

// Len returns the number of active consumers.
func (s *FluidSystem) Len() int { return s.liveN }

// SetFullRecompute toggles the reference allocation mode: when on, every
// change re-fills all components instead of only the dirty one. Rates,
// completion order, and completion timestamps are byte-identical in both
// modes; TestFluidIncrementalVsFull compares the two.
func (s *FluidSystem) SetFullRecompute(on bool) { s.full = on }

// DirtyConsumers reports how many consumers the latest reallocation
// re-filled (the length of the dirty-set scratch slice).
func (s *FluidSystem) DirtyConsumers() int { return len(s.dirtyC) }

// TightResources returns the resources the latest fill kept after
// dropping the slack ones (a copy of the scratch slice, creation order).
func (s *FluidSystem) TightResources() []*FluidResource {
	return append([]*FluidResource(nil), s.tightR...)
}

// CheckLastFill re-runs the reference progressive filling over the dirty
// set the latest reallocation left behind and reports the first consumer
// whose reference rate differs from the pruned fill's in any bit. Fill
// reads only limits, weights, paths and capacities, none of which
// applyRates or an OnDone callback changes, so calling this right after a
// change (or from OnDone) checks exactly the fill that change ran.
func (s *FluidSystem) CheckLastFill() error {
	got := append([]float64(nil), s.newRate...)
	defer copy(s.newRate, got)
	// The reference fills over every resource a dirty consumer crosses, in
	// creation order, slack or not, as the allocator did when every
	// resource took part in every round.
	var rs []*FluidResource
	for _, c := range s.dirtyC {
		for _, r := range c.resources {
			if !slices.Contains(rs, r) {
				rs = append(rs, r)
			}
		}
	}
	slices.SortFunc(rs, func(a, b *FluidResource) int { return int(a.idx - b.idx) })
	s.refFill(rs)
	for i, c := range s.dirtyC {
		if want := s.newRate[i]; math.Float64bits(got[i]) != math.Float64bits(want) {
			return fmt.Errorf("fill over %d consumers / %d resources (%d tight): %s (limit %v, weight %v) got rate %v (%x), reference %v (%x)",
				len(s.dirtyC), len(rs), len(s.tightR), c.Name, c.Limit, c.Weight,
				got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	return nil
}

// refFill is the allocator as it stood before slack-resource pruning:
// weighted progressive filling of the dirty set over resources dr, every
// resource re-summed and re-divided every round. It is the bit-exact
// reference TestFillMatchesReference holds fill to.
func (s *FluidSystem) refFill(dr []*FluidResource) {
	dc := s.dirtyC
	if cap(s.newRate) < len(dc) {
		s.newRate = make([]float64, len(dc))
	}
	s.newRate = s.newRate[:len(dc)]
	for _, r := range dr {
		r.avail = r.capacity
	}
	for i, c := range dc {
		c.frozen = false
		s.newRate[i] = 0
	}
	unfrozen := len(dc)
	for unfrozen > 0 {
		for _, r := range dr {
			r.weightOn = 0
		}
		for _, c := range dc {
			if c.frozen {
				continue
			}
			for _, r := range c.resources {
				r.weightOn += c.Weight
			}
		}
		minRatio := math.Inf(1)
		var minRes *FluidResource
		minCapped := -1
		for _, r := range dr {
			if r.weightOn == 0 {
				continue
			}
			if ratio := r.avail / r.weightOn; ratio < minRatio {
				minRatio, minRes, minCapped = ratio, r, -1
			}
		}
		for i, c := range dc {
			if c.frozen || c.Limit <= 0 {
				continue
			}
			if ratio := c.Limit / c.Weight; ratio < minRatio {
				minRatio, minRes, minCapped = ratio, nil, i
			}
		}
		switch {
		case minCapped >= 0:
			// One consumer hits its rate cap below everyone's fair share.
			c := dc[minCapped]
			s.newRate[minCapped] = c.Limit
			for _, r := range c.resources {
				r.avail -= c.Limit
				if r.avail < 0 {
					r.avail = 0
				}
			}
			c.frozen = true
			unfrozen--
		case minRes != nil:
			// A resource saturates: freeze everyone crossing it.
			for i, c := range dc {
				if c.frozen {
					continue
				}
				uses := false
				for _, r := range c.resources {
					if r == minRes {
						uses = true
						break
					}
				}
				if !uses {
					continue
				}
				rate := c.Weight * minRatio
				s.newRate[i] = rate
				for _, r := range c.resources {
					r.avail -= rate
					if r.avail < 0 {
						r.avail = 0
					}
				}
				c.frozen = true
				unfrozen--
			}
			minRes.avail = 0
		default:
			// Only unconstrained, uncapped consumers remain (no resources
			// at all would have been rejected at Add). Nothing binds: this
			// can only happen when all their resources have infinite
			// capacity — treat as unlimited via an infinite rate.
			for i, c := range dc {
				if !c.frozen {
					s.newRate[i] = math.Inf(1)
					c.frozen = true
				}
			}
			unfrozen = 0
		}
	}
}
