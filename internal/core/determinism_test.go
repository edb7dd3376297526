package core

import (
	"testing"
)

// Determinism regression: running the same experiment twice with the same
// seed must render byte-identical metric tables. E3 (scale) exercises the
// MDS registration machinery; E9 (oversubscription) exercises SHARP
// ticket issue/redeem — together they cover both stacks' hot paths.
func TestRunScaleDeterministic(t *testing.T) {
	a := RunScale(42, []int{4, 8}, 1).String()
	b := RunScale(42, []int{4, 8}, 1).String()
	if a != b {
		t.Errorf("E3 diverged across identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestRunOversubDeterministic(t *testing.T) {
	a := RunOversub(42, []float64{1, 2}, 1).String()
	b := RunOversub(42, []float64{1, 2}, 1).String()
	if a != b {
		t.Errorf("E9 diverged across identical runs:\n%s\nvs\n%s", a, b)
	}
}
