package core

import (
	"reflect"
	"testing"
)

// Determinism regression: running the same experiment twice with the same
// seed must compute identical rows. E3 (scale) exercises the MDS
// registration machinery; E9 (oversubscription) exercises SHARP ticket
// issue/redeem — together they cover both stacks' hot paths.
func TestRunScaleDeterministic(t *testing.T) {
	if a, b := E3.Run(42, []int{4, 8}, 1), E3.Run(42, []int{4, 8}, 1); !reflect.DeepEqual(a, b) {
		t.Errorf("E3 diverged across identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

func TestRunOversubDeterministic(t *testing.T) {
	if a, b := E9.Run(42, []float64{1, 2}, 1), E9.Run(42, []float64{1, 2}, 1); !reflect.DeepEqual(a, b) {
		t.Errorf("E9 diverged across identical runs:\n%+v\nvs\n%+v", a, b)
	}
}
