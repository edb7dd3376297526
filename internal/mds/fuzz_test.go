package mds

import (
	"math"
	"strconv"
	"testing"
)

// FuzzParseNumericAgreesWithParseFloat: the fast reject must be
// invisible — parseNumeric succeeds exactly when ParseFloat does, with
// the same bits. Summary pruning (parseNumeric) and filter matching
// (ParseFloat) disagreeing on one value is a lost record.
func FuzzParseNumericAgreesWithParseFloat(f *testing.F) {
	for _, s := range []string{"inf", "+Inf", "-infinity", "nan", "+nan", "0x1p-2", "1_0", ".5", "irix", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := parseNumeric(s)
		want, wantErr := strconv.ParseFloat(s, 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parseNumeric(%q) err = %v, ParseFloat err = %v", s, gotErr, wantErr)
		}
		if gotErr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseNumeric(%q) = %v, ParseFloat = %v", s, got, want)
		}
	})
}

// TestParseNumericRejectsWordsAllocFree: accepting the unsigned
// specials must not put ParseFloat's error allocation back on the
// register path for plain words that share their first letter.
func TestParseNumericRejectsWordsAllocFree(t *testing.T) {
	for _, s := range []string{"irix", "nfs", "intel", "Infiniband", "nano", "linux"} {
		n := testing.AllocsPerRun(100, func() {
			if _, err := parseNumeric(s); err == nil {
				t.Fatalf("parseNumeric(%q) succeeded", s)
			}
		})
		if n != 0 {
			t.Errorf("parseNumeric(%q) allocates %.0f objects, want 0", s, n)
		}
	}
}
