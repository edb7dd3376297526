package mds

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"
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

// TestOrderingFilterOnWordAllocFree: every matcher parses through
// parseNumeric, so an ordering filter that meets a word (the region's
// slot matcher, and the flat oracle's Match beside it) or carries one as
// its bound (the root's summary test) pays no *NumError either.
func TestOrderingFilterOnWordAllocFree(t *testing.T) {
	attrs := map[string]string{"os": "linux"}
	rig := newShardRig(t, 1)
	rig.feed(t, 0, Record{Name: "n", Source: "s", Attrs: attrs}, time.Hour)
	sum := RegionSummary{Keys: []KeySummary{{Key: "os", Values: []string{"linux"}}}}
	lt5 := Query{Filters: []Filter{{"os", FLt, "5"}}}
	q := Query{Filters: []Filter{{"os", FGe, "irix"}}}
	n := testing.AllocsPerRun(100, func() {
		if lt5.Filters[0].Match(attrs) || len(rig.regions[0].Eval(lt5).Records) != 0 || summaryMayMatch(sum, q) {
			t.Fatal("an ordering filter held over a word")
		}
	})
	if n != 0 {
		t.Errorf("ordering filters over words allocate %.0f objects, want 0", n)
	}
}

// The register script: one op byte, then its operands. Low two bits pick
// the op (three of four register, so scripts are mostly registrations).
//
//	register: bits 2-3 name, bits 4-7 key subset; then a TTL byte
//	          (1-3 minutes) and a value byte per key in the subset
//	advance:  bits 2-3 minutes less one
var (
	fuzzNames = [4]string{"a/n0", "a/n1", "b/n0", "c/n0"}
	fuzzKeys  = [4]string{"cpus", "gpu", "load", "os"}
	// Ten numeric spellings, so one key can overflow its eight-value
	// summary set; the rest parse oddly or not at all ("1e309" is out of
	// range, which ParseFloat reports as an error).
	fuzzVals = [16]string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "-0", "", "inf", "nan", "1e309", "linux", "irix"}
)

const fuzzAdvance = 2

// fuzzReg encodes one registration: name index, TTL in minutes, then
// (key index, value index) pairs in ascending key order.
func fuzzReg(name, ttl int, kv ...int) []byte {
	out := []byte{byte(name << 2), byte(ttl - 1)}
	for i := 0; i < len(kv); i += 2 {
		out[0] |= 1 << (4 + uint(kv[i]))
		out = append(out, byte(kv[i+1]))
	}
	return out
}

func fuzzAdv(minutes int) []byte { return []byte{byte(fuzzAdvance | (minutes-1)<<2)} }

// FuzzRegisterAgreesWithReference: whatever sequence of registrations and
// clock advances the bytes script, the region and its
// refRegister twin hold the same slots and summary after every step, and
// region, twin and the flat oracle answer three query shapes alike. The
// region serves the reply maps it keeps up to date, the twin rebuilds
// them from the pairs each time, the oracle holds a map per record.
func FuzzRegisterAgreesWithReference(f *testing.F) {
	const cpus, gpu, load, os = 0, 1, 2, 3
	for _, script := range [][][]byte{
		// Same-size key swap: load leaves, gpu enters.
		{fuzzReg(0, 3, cpus, 4, load, 2, os, 14), fuzzReg(0, 3, cpus, 4, gpu, 1, os, 14)},
		// A value changes and reverts; the rest stand.
		{fuzzReg(1, 3, load, 2, os, 14), fuzzReg(1, 3, load, 7, os, 14), fuzzReg(1, 3, load, 2, os, 14)},
		// Refresh of an expired name, with the same value and then another.
		{fuzzReg(2, 1, load, 11), fuzzAdv(2), fuzzReg(2, 1, load, 11), fuzzAdv(2), fuzzReg(2, 1, load, 12)},
		// A ninth distinct value overflows the summary set; an expired
		// name's value stays in it.
		{fuzzReg(0, 1, load, 0), fuzzReg(0, 3, load, 1), fuzzReg(0, 3, load, 2), fuzzReg(0, 3, load, 3), fuzzReg(0, 3, load, 4),
			fuzzReg(0, 3, load, 5), fuzzReg(0, 3, load, 6), fuzzReg(0, 3, load, 7), fuzzReg(0, 3, load, 8), fuzzReg(1, 1, load, 9),
			fuzzAdv(2), fuzzReg(0, 3, load, 8)},
		// The values that parse oddly or not at all, then an empty key set.
		{fuzzReg(3, 2, cpus, 10, gpu, 11, load, 12, os, 13), fuzzReg(3, 2, cpus, 9, gpu, 11, load, 13, os, 12), fuzzReg(3, 2)},
	} {
		f.Add(bytes.Join(script, nil))
	}
	queries := []Query{
		{},
		{Filters: []Filter{{"os", FEq, "linux"}}},
		{Filters: []Filter{{"load", FGe, "-0"}}, Limit: 2},
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		rig := newShardRig(t, 2)
		eng, rg, ref, flat := rig.eng, rig.regions[0], rig.regions[1], rig.flat
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for step := 0; len(script) > 0; step++ {
			op := next()
			switch op & 3 {
			case fuzzAdvance:
				eng.RunUntil(eng.Now() + time.Duration(1+op>>2&3)*time.Minute)
			default:
				reg := Registration{TTL: time.Duration(1+next()%3) * time.Minute, Rec: Record{
					Name: fuzzNames[op>>2&3], Source: "s", Stamp: eng.Now(), Attrs: map[string]string{}}}
				for k, key := range fuzzKeys {
					if op>>(4+uint(k))&1 == 1 {
						reg.Rec.Attrs[key] = fuzzVals[next()%16]
					}
				}
				_, flatErr := flat.handleRegister("s", reg)
				if err, refErr := rg.RegisterRecord(reg), refRegister(ref, reg); err != nil || refErr != nil || flatErr != nil {
					t.Fatalf("step %d: register %+v: %v, reference %v, flat %v", step, reg, err, refErr, flatErr)
				}
			}
			if diff := twinDiff(rg, ref); diff != "" {
				t.Fatalf("step %d (op %#x): %s", step, op, diff)
			}
			for _, q := range queries {
				got, want, oracle := renderReply(rg.Eval(q)), renderReply(ref.Eval(q)), renderReply(flat.Eval(q))
				if !bytes.Equal(got, want) || !bytes.Equal(got, oracle) {
					t.Fatalf("step %d (op %#x): query %+v:\n%s--- reference ---\n%s--- flat ---\n%s", step, op, q, got, want, oracle)
				}
			}
		}
	})
}

// The root-query script: one op byte, then its operands. Low two bits
// pick the op (two of four register, so scripts are mostly
// registrations).
//
//	register: bits 2-4 name (region: name mod 4), bits 5-7 key subset;
//	          then a TTL byte (1-3 minutes) and a value byte per key
//	clock:    bits 2-3 advance minutes less one
//	absorb:   bits 2-3 region, bits 4-5 the TTL of its summary
var (
	rootNames = [8]string{"r0/n0", "r1/n1", "r2/n2", "r3/n3", "r0/n4", "r1/n5", "r2/n6", "r3/n7"}
	rootKeys  = [3]string{"load", "os", "site"}
	rootTTLs  = [4]time.Duration{0, time.Minute, 2 * time.Minute, time.Hour}
)

const (
	rootClock  = 2
	rootAbsorb = 3
)

// rootReg encodes one registration: name index, TTL in minutes, then
// (key index, value index) pairs in ascending key order.
func rootReg(name, ttl int, kv ...int) []byte {
	out := []byte{byte(name << 2), byte(ttl - 1)}
	for i := 0; i < len(kv); i += 2 {
		out[0] |= 1 << (5 + uint(kv[i]))
		out = append(out, byte(kv[i+1]))
	}
	return out
}

// FuzzQueryShardsAgreesWithReference: whatever registrations, refreshes,
// clock advances and summary absorbs the bytes script over four regions,
// the root's pruned, merged answer to every query shape is byte for byte
// the unpruned concatenate-and-sort refQueryShards. Sixteen values a key
// overflow the exact sets, so equality prunes through the filters. The
// root absorbs a region's summary after each of its registrations, so the
// summary it holds covers every live value; records that expire stay in
// it, wider than the region and still sound. The absorb op's TTLs of 0
// and one minute make a summary that lapses, so the region is consulted
// as unknown.
func FuzzQueryShardsAgreesWithReference(f *testing.F) {
	const load, os, site = 0, 1, 2
	var overflow [][]byte
	for v := 0; v < 12; v++ {
		overflow = append(overflow, rootReg(v%2*4, 3, load, v, site, v))
	}
	for _, script := range [][][]byte{
		// Twelve site values overflow region 0; region 1 holds one.
		append(slices.Clone(overflow), rootReg(1, 3, os, 14, site, 15)),
		// A short-lived site expires; the summary that still holds it is
		// absorbed again for an hour, then for a minute that lapses.
		append(slices.Clone(overflow), rootReg(2, 1, site, 3), rootReg(6, 3, site, 4), []byte{rootClock | 1<<2},
			[]byte{rootAbsorb | 2<<2 | 3<<4}, []byte{rootAbsorb | 2<<2 | 1<<4}, []byte{rootClock | 1<<2}),
		// A summary with no TTL is stale at once, an hour-long one outlives
		// the records it covers.
		{rootReg(3, 2, os, 15, site, 1), []byte{rootAbsorb | 3<<2}, rootReg(5, 2, site, 2), []byte{rootAbsorb | 1<<2 | 3<<4}, []byte{rootClock | 3<<2}},
	} {
		f.Add(bytes.Join(script, nil))
	}
	queries := []Query{
		{},
		{Limit: 3},
		{Filters: []Filter{{"site", FEq, "3"}}},
		{Filters: []Filter{{"site", FEq, "linux"}}, Limit: 1},
		{Filters: []Filter{{"site", FEq, "7"}}},
		{Filters: []Filter{{"site", FEq, "-0"}}},
		{Filters: []Filter{{"site", FEq, "absent"}}},
		{Filters: []Filter{{"site", FNe, "7"}}, Limit: 4},
		{Filters: []Filter{{"os", FEq, "irix"}}},
		{Filters: []Filter{{"load", FGe, "4"}}, Limit: 2},
		{Filters: []Filter{{"load", FLt, "inf"}}},
		{Filters: []Filter{{"site", FEq, "5"}, {"load", FLe, "8"}}, Limit: 2},
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		rig := newShardRig(t, 4)
		eng, root := rig.eng, rig.root
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for step := 0; len(script) > 0; step++ {
			op := next()
			switch op & 3 {
			case rootClock:
				eng.RunUntil(eng.Now() + time.Duration(1+op>>2&3)*time.Minute)
			case rootAbsorb:
				root.AbsorbSummary(rig.regions[op>>2&3].Summary(rootTTLs[op>>4&3]))
			default:
				name := int(op >> 2 & 7)
				reg := Registration{TTL: time.Duration(1+next()%3) * time.Minute, Rec: Record{
					Name: rootNames[name], Source: "s", Stamp: eng.Now(), Attrs: map[string]string{}}}
				for k, key := range rootKeys {
					if op>>(5+uint(k))&1 == 1 {
						reg.Rec.Attrs[key] = fuzzVals[next()%16]
					}
				}
				rg := rig.regions[name%4]
				if err := rg.RegisterRecord(reg); err != nil {
					t.Fatalf("step %d: register %+v: %v", step, reg, err)
				}
				root.AbsorbSummary(rg.Summary(2 * time.Minute))
			}
			for _, q := range queries {
				reply, err := root.QueryShards(q)
				if got, want := renderReply(reply), renderReply(refQueryShards(root, q)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d (op %#x): query %+v: err=%v\n%s--- reference ---\n%s", step, op, q, err, got, want)
				}
			}
		}
	})
}
