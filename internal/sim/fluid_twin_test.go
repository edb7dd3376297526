package sim_test

// Twin-system gates for the dirty-set walk's stopping rule: the walk
// crosses a resource only if it is tight after the change, or is one of
// the change's own resources and was tight before it. Each script runs
// against a pruned system and a full-recompute one side by side, and
// every live consumer's rate must agree bit for bit after every step.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// twinSide is one of a fluidTwin's two systems, with its live consumers
// in admission order and its log of removals and completions.
type twinSide struct {
	eng  *sim.Engine
	sys  *sim.FluidSystem
	res  []*sim.FluidResource
	live []*twinConsumer
	log  []string
}

type twinConsumer struct {
	c  *sim.FluidConsumer
	sd *twinSide
}

func (tc *twinConsumer) done() {
	sd := tc.sd
	sd.log = append(sd.log, fmt.Sprintf("%d done %s", sd.eng.Now(), tc.c.Name))
	sd.live = slices.DeleteFunc(sd.live, func(x *twinConsumer) bool { return x == tc })
}

// fluidTwin applies every operation to a pruned system (side 0) and a
// full-recompute one (side 1). Consumers are picked by index into the live
// list, which is the same on both sides for as long as their logs agree.
type fluidTwin struct {
	side  [2]*twinSide
	added int
}

func newFluidTwin(capacities ...float64) *fluidTwin {
	w := &fluidTwin{}
	for i := range w.side {
		eng := sim.NewEngine(1)
		sd := &twinSide{eng: eng, sys: sim.NewFluidSystem(eng)}
		sd.sys.SetFullRecompute(i == 1)
		for j, c := range capacities {
			sd.res = append(sd.res, sd.sys.NewResource(fmt.Sprintf("r%d", j), c))
		}
		w.side[i] = sd
	}
	return w
}

func (w *fluidTwin) add(limit, weight, work float64, rs ...int) {
	w.added++
	for _, sd := range w.side {
		tc := &twinConsumer{sd: sd}
		tc.c = &sim.FluidConsumer{Name: fmt.Sprintf("c%d", w.added), Weight: weight, Limit: limit, OnDone: tc.done}
		path := make([]*sim.FluidResource, len(rs))
		for i, r := range rs {
			path[i] = sd.res[r]
		}
		sd.live = append(sd.live, tc)
		sd.sys.Add(tc.c, work, path...)
	}
}

func (w *fluidTwin) remove(i int) {
	for _, sd := range w.side {
		if len(sd.live) == 0 {
			return
		}
		tc := sd.live[i%len(sd.live)]
		sd.live = slices.Delete(sd.live, i%len(sd.live), i%len(sd.live)+1)
		sd.sys.Remove(tc.c)
		sd.log = append(sd.log, fmt.Sprintf("%d rm %s moved=%x", sd.eng.Now(), tc.c.Name, math.Float64bits(tc.c.Transferred())))
	}
}

func (w *fluidTwin) setLimit(i int, limit float64) {
	for _, sd := range w.side {
		if len(sd.live) > 0 {
			sd.live[i%len(sd.live)].c.SetLimit(limit)
		}
	}
}

func (w *fluidTwin) setCapacity(r int, c float64) {
	for _, sd := range w.side {
		sd.res[r].SetCapacity(c)
	}
}

func (w *fluidTwin) advance(d time.Duration) {
	for _, sd := range w.side {
		sd.eng.RunUntil(sd.eng.Now() + d)
	}
}

// diff reports the first disagreement between the two sides: the removal
// and completion logs, then every live consumer's rate by its float bits.
func (w *fluidTwin) diff() error {
	p, f := w.side[0], w.side[1]
	if a, b := strings.Join(p.log, "\n"), strings.Join(f.log, "\n"); a != b {
		return fmt.Errorf("logs differ:\npruned:\n%s\nfull:\n%s", a, b)
	}
	if len(p.live) != len(f.live) {
		return fmt.Errorf("pruned has %d live consumers, full %d", len(p.live), len(f.live))
	}
	for i, pc := range p.live {
		got, want := pc.c.Rate(), f.live[i].c.Rate()
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%s (limit %v) rate %v (%x), full recompute %v (%x)",
				pc.c.Name, pc.c.Limit, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return nil
}

// atLimits reports whether every live consumer of the full side runs at
// its Limit, i.e. no resource binds any of them.
func (w *fluidTwin) atLimits() bool {
	for _, tc := range w.side[1].live {
		if tc.c.Rate() != tc.c.Limit {
			return false
		}
	}
	return true
}

// TestSlackTransitionRefills flips a seed resource from tight to slack
// (and back) through each of the four mutators, with bystanders on it
// whose rates the flip moves. The pruned walk must re-fill them: a
// resource that was tight before a change set its consumers' rates even
// when the change leaves it slack, so dropping the before-check at any one
// mutator leaves a bystander at its old, tight-era rate.
func TestSlackTransitionRefills(t *testing.T) {
	type step struct {
		do       func(w *fluidTwin)
		atLimits bool // on the full side, after the step
	}
	capped := func(limit float64) func(*fluidTwin) {
		return func(w *fluidTwin) { w.add(limit, 1, 1e6, 0) }
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"Remove of the only uncapped consumer", []step{
			{capped(4), true},
			{capped(4), true},
			{func(w *fluidTwin) { w.add(0, 1, 1e6, 0) }, false},
			{func(w *fluidTwin) { w.remove(2) }, true},
		}},
		{"completion of the only uncapped consumer", []step{
			{capped(4), true},
			{capped(4), true},
			{func(w *fluidTwin) { w.add(0, 1, 1, 0) }, false},
			{func(w *fluidTwin) { w.advance(time.Second) }, true},
		}},
		{"SetLimit past the capacity and back", []step{
			{capped(2), true},
			{capped(6), true},
			{func(w *fluidTwin) { w.setLimit(0, 20) }, false},
			{func(w *fluidTwin) { w.setLimit(0, 2) }, true},
		}},
		{"SetCapacity below the caps and back", []step{
			{capped(4), true},
			{capped(4), true},
			{func(w *fluidTwin) { w.setCapacity(0, 6) }, false},
			{func(w *fluidTwin) { w.setCapacity(0, 10) }, true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newFluidTwin(10)
			for i, st := range tc.steps {
				st.do(w)
				if err := w.diff(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if got := w.atLimits(); got != st.atLimits {
					t.Fatalf("step %d: every consumer at its limit = %v, the case needs %v", i, got, st.atLimits)
				}
			}
			if len(w.side[0].live) < 2 {
				t.Fatalf("%d consumers left on the resource, the case needs bystanders", len(w.side[0].live))
			}
		})
	}
}

// Script ops of FuzzFluidAgreesWithFull, four bytes each: the op, then
// three operands.
const (
	twinAdd         = iota // limit, resource mask, weight and work
	twinRemove             // live index
	twinSetLimit           // live index, limit
	twinSetCapacity        // resource, capacity
	twinAdvance            // step
	twinOps
)

var (
	twinCapacities = []float64{10, 10, 40, 100} // the fuzz system's resources
	twinLimits     = []float64{0, 1, 2, 4, 6, 20, 0.7, 33.3}
	twinNewCaps    = []float64{10, 6, 0, math.Inf(1), 40, 8, 100, 3.3}
	twinWorks      = []float64{1, 10, 1e3, 1e6}
	twinSteps      = []time.Duration{100 * time.Millisecond, time.Second, 10 * time.Second, 100 * time.Second}
)

// runTwinScript applies a byte script to a fresh twin and fails at the
// first step after which the two sides disagree.
func runTwinScript(t *testing.T, script []byte) {
	w := newFluidTwin(twinCapacities...)
	for i := 0; i+4 <= len(script) && i < 4*256; i += 4 {
		op, a, b, c := script[i]%twinOps, int(script[i+1]), int(script[i+2]), int(script[i+3])
		switch op {
		case twinAdd:
			// The low nibble picks up to three resources; none picks one.
			var rs []int
			for r := range twinCapacities {
				if b&(1<<r) != 0 && len(rs) < 3 {
					rs = append(rs, r)
				}
			}
			if len(rs) == 0 {
				rs = []int{b >> 4 % len(twinCapacities)}
			}
			w.add(twinLimits[a%len(twinLimits)], float64(1+c&3), twinWorks[c>>2%len(twinWorks)], rs...)
		case twinRemove:
			w.remove(a)
		case twinSetLimit:
			w.setLimit(a, twinLimits[b%len(twinLimits)])
		case twinSetCapacity:
			w.setCapacity(a%len(twinCapacities), twinNewCaps[b%len(twinNewCaps)])
		case twinAdvance:
			w.advance(twinSteps[a%len(twinSteps)])
		}
		if err := w.diff(); err != nil {
			t.Fatalf("op %d (% x): %v", i/4, script[i:i+4], err)
		}
	}
	w.advance(time.Hour)
	if err := w.diff(); err != nil {
		t.Fatalf("after draining: %v", err)
	}
}

// FuzzFluidAgreesWithFull holds the pruned allocator to the full
// recompute under arbitrary churn: adds of capped and uncapped consumers
// over one to three of four resources, removals, limit changes,
// capacity changes (0 and +Inf among them) and time advances, comparing
// every rate bitwise and the completion log after every step. The seed
// corpus holds TestSlackTransitionRefills' four transitions.
func FuzzFluidAgreesWithFull(f *testing.F) {
	const capped4, uncapped, idle = 3, 0, 3 << 2 // limit 4, limit 0, work 1e6
	for _, script := range [][]byte{
		{ // Remove of the only uncapped consumer
			twinAdd, capped4, 1, idle, twinAdd, capped4, 1, idle, twinAdd, uncapped, 1, idle,
			twinRemove, 2, 0, 0,
		},
		{ // its natural completion
			twinAdd, capped4, 1, idle, twinAdd, capped4, 1, idle, twinAdd, uncapped, 1, 0,
			twinAdvance, 1, 0, 0,
		},
		{ // SetLimit past the capacity and back
			twinAdd, 2, 1, idle, twinAdd, 4, 1, idle,
			twinSetLimit, 0, 5, 0, twinSetLimit, 0, 2, 0,
		},
		{ // SetCapacity below the caps and back
			twinAdd, capped4, 1, idle, twinAdd, capped4, 1, idle,
			twinSetCapacity, 0, 1, 0, twinSetCapacity, 0, 0, 0,
		},
	} {
		f.Add(script)
	}
	f.Fuzz(runTwinScript)
}
