package sim

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Snapshot/Fork: copy-on-demand time travel for the kernel and everything
// built on it.
//
// Snapshot captures the engine's complete state — clock, sequence
// numbers, event heap, node store, free list, rng stream — together with
// the deep state of every registered snapshot root (see SnapRoot).
// Fork rewinds the engine, in place, back to that captured state.
//
// The model is sequential time travel, not parallel cloning: the heap is
// full of closures over the live object graph, so the only way a restored
// heap stays meaningful is if the graph it points into is restored with
// it. Fork therefore returns the SAME *Engine, rewound; at most one
// timeline is alive at a time, and a snapshot may be forked any number of
// times (each Fork abandons the current timeline). Parallel sweeps keep
// their parallelism one level up — one engine per worker, sequential
// forks within it — which internal/perf/chaos exploits.
//
// Correctness contract: a forked run is byte-identical to a cold run that
// reaches the fork point by executing the same schedule. The differential
// harness in internal/sim/snaptest (and the faultlab/core gates built on
// it) enforce this across a seed grid under -race.

// snapRoot is one registered object-graph anchor for the deep walker.
type snapRoot struct {
	name string
	val  any
}

// SnapRoot registers an object graph to be captured by Snapshot and
// rewound by Fork. The walker follows struct fields (exported or not),
// pointers, interfaces, maps, and slices; it does NOT look inside func
// values, so mutable state captured only by closures must be hoisted into
// a struct reachable from some root. Roots registered after a snapshot
// was taken are forgotten by its Fork (the registry itself is rewound).
func (e *Engine) SnapRoot(name string, root any) {
	if root == nil {
		panic("sim: nil snapshot root")
	}
	if rv := reflect.ValueOf(root); rv.Kind() != reflect.Ptr && rv.Kind() != reflect.Map {
		panic(fmt.Sprintf("sim: snapshot root %q must be a pointer or map, got %T", name, root))
	}
	e.snapRoots = append(e.snapRoots, snapRoot{name: name, val: root})
}

// Snapshot is a captured engine state; Fork rewinds the engine back to
// it. The zero Snapshot is invalid.
type Snapshot struct {
	eng *Engine
	w   *walker
}

// Snapshot captures the engine and all registered roots. It must be
// called between events (never from inside a running callback) and has
// zero behavioural cost: the capture only reads state, so a
// snapshot-then-continue run is byte-identical to never snapshotting.
func (e *Engine) Snapshot() Snapshot {
	w := newWalker()
	w.capture(unsafe.Pointer(e), reflect.TypeOf(*e))
	return Snapshot{eng: e, w: w}
}

// Fork rewinds the engine — in place — to the snapshot point and returns
// it. The current timeline is abandoned: its pending events, object
// state, and rng position are all rolled back. Event handles minted in
// the abandoned timeline become permanent no-ops (generations are never
// reused across timelines), while handles that were live at capture time
// are live again.
func (s *Snapshot) Fork() *Engine {
	e := s.eng
	if e == nil {
		panic("sim: Fork on zero Snapshot")
	}
	// The generation counter survives the rewind: it is what guarantees
	// cross-timeline handle uniqueness.
	gen := e.genCounter
	s.w.restore()
	if gen > e.genCounter {
		e.genCounter = gen
	}
	return e
}
