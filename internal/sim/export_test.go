package sim

// SetFullRecompute toggles the reference allocation mode: when on, every
// change re-fills all components instead of only the dirty one. Rates,
// completion order, and completion timestamps are byte-identical in both
// modes; TestFluidIncrementalVsFull compares the two.
func (s *FluidSystem) SetFullRecompute(on bool) { s.full = on }

// DirtyConsumers reports how many consumers the latest reallocation
// re-filled (the length of the dirty-set scratch slice).
func (s *FluidSystem) DirtyConsumers() int { return len(s.dirtyC) }
