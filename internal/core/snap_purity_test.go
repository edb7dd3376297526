package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Snapshot-purity gates: sim.Engine.Snapshot must be behaviourally free.
// These tests run a scenario twice — once plain, once taking (and
// discarding) mid-scenario snapshots via the unexported hooks — and
// require byte-identical rendered output. The chaos counterpart lives in
// faultlab's TestChaosSnapshotPurity; together they cover fig2, E3, and
// the chaos scenario as the gate demands.

// fig2Output renders Figure 2 plus its full JSONL trace.
func fig2Output(t *testing.T, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	res, tr, err := Figure2Traced(seed)
	if err != nil {
		t.Fatalf("Figure2Traced: %v", err)
	}
	if err := ValidateFigure2(res); err != nil {
		t.Fatalf("ValidateFigure2: %v", err)
	}
	for _, s := range res.Trace {
		fmt.Fprintf(&b, "%s %s->%s %s @%v\n", s.Step, s.From, s.To, s.Action, s.At)
	}
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return b.Bytes()
}

func TestFigure2SnapshotPurity(t *testing.T) {
	const seed = 42
	plain := fig2Output(t, seed)

	var snaps []sim.Snapshot
	fig2MidHook = func(f *Federation) { snaps = append(snaps, f.Eng.Snapshot()) }
	defer func() { fig2MidHook = nil }()
	snapped := fig2Output(t, seed)

	if len(snaps) == 0 {
		t.Fatalf("mid-scenario hook never ran")
	}
	if !bytes.Equal(plain, snapped) {
		t.Fatalf("snapshot perturbed Figure 2 (plain %dB, snapped %dB)", len(plain), len(snapped))
	}
}

func TestScaleSnapshotPurity(t *testing.T) {
	const seed = 7
	render := func() []byte {
		var b bytes.Buffer
		RunScale(seed, []int{10}, 1).Render(&b)
		return b.Bytes()
	}
	plain := render()

	took := 0
	scaleMidHook = func(f *Federation) { took++; _ = f.Eng.Snapshot() }
	defer func() { scaleMidHook = nil }()
	snapped := render()

	if took != 2 {
		t.Fatalf("hook ran %d times, want 2 (globus + planetlab builds)", took)
	}
	if !bytes.Equal(plain, snapped) {
		t.Fatalf("snapshot perturbed E3 output:\nplain:\n%s\nsnapped:\n%s", plain, snapped)
	}
}
