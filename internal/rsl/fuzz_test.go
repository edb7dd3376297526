package rsl

import "testing"

// FuzzParseAndSeconds: Parse never panics on any input, and a duration
// that Seconds hands out with a nil error is one a scheduler can use —
// never negative, which is what an unchecked float64→int64 conversion
// yields for NaN, ±Inf and anything past 2⁶³ ns. The seed corpus (run by
// plain `go test`) is the shapes the unit tests parse plus the overflow
// literals.
func FuzzParseAndSeconds(f *testing.F) {
	for _, s := range []string{
		`&(executable=/bin/sim)(count=4)(maxWallTime=3600)`,
		`& ( executable = /bin/a ) ( count = 2 )`,
		`&(directory="/home/my user")(note="say ""hi""")`,
		`&(executable=/bin/a)(environment=(HOME /home/u)(TERM vt100))`,
		`+(&(executable=a)(count=2))(&(executable=b)(count=4))`,
		`&(memory>=512)(disk<10000)(cpus>1)(slots<=8)(os!=windows)`,
		`&(MaxWallTime=60)`, `&(maxWallTime=1e300)`, `&(maxWallTime=9.3e9)`,
		`&(maxWallTime=NaN)`, `&(maxWallTime=Inf)`, `&(maxWallTime=-5)`,
		`&(maxWallTime=9223372036.854775807)`, `&(maxWallTime=0x1p63)`,
		``, `&`, `&()`, `&(count=4`, `&(s="unterminated)`, `&(a=(1 2)`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return
		}
		req, err := spec.Single()
		if err != nil {
			return
		}
		if d, err := req.Seconds("maxWallTime"); err == nil && d < 0 {
			t.Fatalf("Seconds(maxWallTime) of %q = %v with a nil error", src, d)
		}
	})
}
