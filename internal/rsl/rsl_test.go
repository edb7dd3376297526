package rsl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestParseSimpleJob(t *testing.T) {
	s := mustParse(t, `&(executable=/bin/sim)(count=4)(maxWallTime=3600)`)
	req, err := s.Single()
	if err != nil {
		t.Fatal(err)
	}
	if exe, _ := req.String2("executable"); exe != "/bin/sim" {
		t.Errorf("executable = %q", exe)
	}
	if n, _ := req.Int("count"); n != 4 {
		t.Errorf("count = %d", n)
	}
	if d, _ := req.Seconds("maxWallTime"); d != 3600*time.Second {
		t.Errorf("maxWallTime = %v", d)
	}
}

func TestParseWhitespaceTolerant(t *testing.T) {
	s := mustParse(t, "  & ( executable = /bin/a )\n\t( count = 2 ) ")
	req, _ := s.Single()
	if exe, _ := req.String2("executable"); exe != "/bin/a" {
		t.Errorf("executable = %q", exe)
	}
}

func TestParseQuotedStrings(t *testing.T) {
	s := mustParse(t, `&(directory="/home/my user")(note="say ""hi""")`)
	req, _ := s.Single()
	if d, _ := req.String2("directory"); d != "/home/my user" {
		t.Errorf("directory = %q", d)
	}
	if n, _ := req.String2("note"); n != `say "hi"` {
		t.Errorf("note = %q", n)
	}
}

func TestParseArguments(t *testing.T) {
	s := mustParse(t, `&(executable=/bin/a)(arguments=-v --out "file 1" 42)`)
	req, _ := s.Single()
	args, err := req.Strings("arguments")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-v", "--out", "file 1", "42"}
	if len(args) != len(want) {
		t.Fatalf("args = %v", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Errorf("args[%d] = %q, want %q", i, args[i], want[i])
		}
	}
}

func TestParseEnvironmentPairs(t *testing.T) {
	s := mustParse(t, `&(executable=/bin/a)(environment=(HOME /home/u)(TERM vt100))`)
	req, _ := s.Single()
	env, err := req.Pairs("environment")
	if err != nil {
		t.Fatal(err)
	}
	if env["HOME"] != "/home/u" || env["TERM"] != "vt100" {
		t.Errorf("env = %v", env)
	}
}

func TestParseMultiRequest(t *testing.T) {
	s := mustParse(t, `+(&(executable=a)(count=2))(&(executable=b)(count=4))`)
	if !s.Multi || len(s.Requests) != 2 {
		t.Fatalf("multi=%v len=%d", s.Multi, len(s.Requests))
	}
	if n, _ := s.Requests[1].Int("count"); n != 4 {
		t.Errorf("second count = %d", n)
	}
	if _, err := s.Single(); err == nil {
		t.Error("Single() on multi-request succeeded")
	}
}

func TestParseRelationalOperators(t *testing.T) {
	s := mustParse(t, `&(memory>=512)(disk<10000)(cpus>1)(slots<=8)(os!=windows)`)
	req, _ := s.Single()
	ops := map[string]Op{"memory": OpGe, "disk": OpLt, "cpus": OpGt, "slots": OpLe, "os": OpNe}
	for attr, want := range ops {
		rel, ok := req.Find(attr)
		if !ok || rel.Op != want {
			t.Errorf("%s: op = %v (found=%v), want %v", attr, rel.Op, ok, want)
		}
	}
}

func TestAttrCaseInsensitive(t *testing.T) {
	s := mustParse(t, `&(MaxWallTime=60)`)
	req, _ := s.Single()
	if _, ok := req.Find("maxwalltime"); !ok {
		t.Error("case-insensitive lookup failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `x`, `&`, `&()`, `&(=5)`, `&(count)`, `&(count=)`,
		`&(count=4`, `&(count=4))`, `&(s="unterminated)`, `+`,
		`+()`, `&(a=(1 2)`, `&(a!5)`,
	}
	for _, src := range bad {
		if _, err := Parse(src); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) = %v, want ErrParse", src, err)
		}
	}
}

func TestParseErrorHasOffset(t *testing.T) {
	_, err := Parse(`&(count=4)(bad`)
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("err = %v, want offset info", err)
	}
}

func TestTypedAccessorErrors(t *testing.T) {
	s := mustParse(t, `&(count=four)(args=a b)(env=(A 1))`)
	req, _ := s.Single()
	if _, err := req.Int("count"); !errors.Is(err, ErrType) {
		t.Errorf("Int: %v", err)
	}
	if _, err := req.String2("nope"); !errors.Is(err, ErrMissing) {
		t.Errorf("missing: %v", err)
	}
	if _, err := req.String2("args"); !errors.Is(err, ErrType) {
		t.Errorf("multi-value as string: %v", err)
	}
	if _, err := req.Strings("env"); !errors.Is(err, ErrType) {
		t.Errorf("list in strings: %v", err)
	}
	if _, err := req.Pairs("count"); !errors.Is(err, ErrType) {
		t.Errorf("literal as pairs: %v", err)
	}
	if _, err := req.Float("count"); !errors.Is(err, ErrType) {
		t.Errorf("Float: %v", err)
	}
}

// TestSecondsRejectsUnrepresentable: a value the float64→Duration
// conversion cannot hold used to come back as −2562047h47m16.854775808s
// (or −5s) with a nil error, and the batch manager scheduled with it.
func TestSecondsRejectsUnrepresentable(t *testing.T) {
	for _, lit := range []string{"1e300", "9.3e9", "NaN", "Inf", "-5", "-Inf", "9223372036.854775808"} {
		req, _ := mustParse(t, `&(maxWallTime=`+lit+`)`).Single()
		if d, err := req.Seconds("maxWallTime"); !errors.Is(err, ErrRange) {
			t.Errorf("Seconds(%s) = %v, %v; want ErrRange", lit, d, err)
		}
	}
	for lit, want := range map[string]time.Duration{
		"0": 0, "0.5": 500 * time.Millisecond, "9.2e9": 9_200_000_000 * time.Second, "-0": 0,
	} {
		req, _ := mustParse(t, `&(maxWallTime=`+lit+`)`).Single()
		if d, err := req.Seconds("maxWallTime"); err != nil || d != want {
			t.Errorf("Seconds(%s) = %v, %v; want %v", lit, d, err, want)
		}
	}
}

func TestDefaults(t *testing.T) {
	s := mustParse(t, `&(executable=/bin/a)`)
	req, _ := s.Single()
	if got := req.IntDefault("count", 1); got != 1 {
		t.Errorf("IntDefault = %d", got)
	}
	if got := req.StringDefault("queue", "default"); got != "default" {
		t.Errorf("StringDefault = %q", got)
	}
	if got := req.StringDefault("executable", "x"); got != "/bin/a" {
		t.Errorf("present StringDefault = %q", got)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	srcs := []string{
		`&(executable=/bin/sim)(count=4)`,
		`&(directory="/home/my user")(arguments=-v "x y")`,
		`+(&(executable=a)(count=2))(&(executable=b)(memory>=512))`,
		`&(environment=(HOME /h)(X 1))(count=2)`,
	}
	for _, src := range srcs {
		s1 := mustParse(t, src)
		s2 := mustParse(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round-trip diverged:\n  %s\n  %s", s1, s2)
		}
	}
}

// Property: rendering then reparsing any generated spec is a fixed point.
func TestRoundTripProperty(t *testing.T) {
	words := []string{"a", "bin", "x1", "/usr/bin/app", "4", "value-with-dash"}
	f := func(attrSeed, valSeed []uint8) bool {
		if len(attrSeed) == 0 {
			return true
		}
		if len(attrSeed) > 6 {
			attrSeed = attrSeed[:6]
		}
		var sb strings.Builder
		sb.WriteByte('&')
		for i, a := range attrSeed {
			attr := words[int(a)%len(words)]
			val := "v"
			if len(valSeed) > 0 {
				val = words[int(valSeed[i%len(valSeed)])%len(words)]
			}
			sb.WriteString("(" + "attr" + attr + "=" + val + ")")
		}
		s1, err := Parse(sb.String())
		if err != nil {
			return false
		}
		s2, err := Parse(s1.String())
		if err != nil {
			return false
		}
		return s1.String() == s2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmptyQuotedValue(t *testing.T) {
	s := mustParse(t, `&(stdin="")`)
	req, _ := s.Single()
	if v, err := req.String2("stdin"); err != nil || v != "" {
		t.Errorf("empty string value = (%q, %v)", v, err)
	}
	// Canonical form renders and reparses.
	if _, err := Parse(s.String()); err != nil {
		t.Errorf("reparse %q: %v", s.String(), err)
	}
}

func TestOpString(t *testing.T) {
	if OpGe.String() != ">=" || OpNe.String() != "!=" {
		t.Error("op names wrong")
	}
}
