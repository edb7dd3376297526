package agreement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/gram"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The offer script: a template byte, then ops.
//
//	template: bit k constrains fuzzTerms[k] to its range; bit 5 pins the
//	          string term os to "linux"; bit 6 requires a queue string
//	op:       low two bits pick it (two of four create)
//	  create, renegotiate: bits 2-3 lifetime in hours (0: none), bits 4-7
//	          the agreement renegotiated; then a byte of which terms ride
//	          along (bit k fuzzTerms[k], bits 5-6 the os string, bit 7 the
//	          queue string) and a fuzzValues byte per numeric term
//	  end:    bit 2 set advances the clock half an hour, clear terminates
//	          the agreement bits 4-7 name
var fuzzTerms = [5]TermConstraint{
	{Name: "cpu", Min: 0.1, Max: 4},
	{Name: "net", Min: 1, Max: 1000},
	{Name: "slots", Min: 1, Max: 8},
	{Name: "start", Min: 0, Max: 1e9},
	{Name: "duration", Min: 60, Max: 86400},
}

// fuzzValue is what a value byte means for a term: the values that break
// a range test or a float→int conversion, and the range's own landmarks.
func fuzzValue(c TermConstraint, b byte) float64 {
	switch b % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return 1e-9
	case 6:
		return c.Max + 1e-9*c.Max
	case 7:
		return 9.3e9 // seconds past what a time.Duration holds
	case 8:
		return 1e300
	case 9:
		return 2.9 // a fraction of a slot
	case 10:
		return -1
	case 11:
		return c.Min
	case 12:
		return c.Max
	case 13:
		return 1
	default:
		return math.Round((c.Min + c.Max) / 2)
	}
}

// refValidate is Template.validate said the long way round.
func refValidate(t Template, o Offer) bool {
	for _, c := range t.Constraints {
		if s, ok := o.Strings[c.Name]; c.IsString && (!ok || c.Exact != "" && s != c.Exact) {
			return false
		}
		if v, ok := o.Terms[c.Name]; !c.IsString && (!ok || math.IsNaN(v) || v < c.Min || v > c.Max) {
			return false
		}
	}
	return true
}

// micro reads an amount to the microunit: a rolled back mint leaves
// x+a-a free, which need not be x to the last bit.
func micro(v float64) int64 { return int64(math.Round(v * 1e6)) }

// liveCaps counts the capabilities nm holds, exactly: a leaked mint of
// 1e-9 cpu leaves Available unchanged to the microunit. nm must draw from
// its own rng seeded with seed. Mint draws each ID as 20 rng bytes, so a
// twin rng replays every ID nm has minted, and Verify tells a held one
// (live or expired) from a released one.
func liveCaps(nm *capability.NodeManager, seed int64) func() int {
	twin := rand.New(rand.NewSource(seed))
	var minted []capability.ID
	return func() int {
		for uint64(len(minted)) < nm.Minted {
			var id capability.ID
			for i := range id {
				id[i] = byte(twin.Intn(256))
			}
			minted = append(minted, id)
		}
		n := 0
		for _, id := range minted {
			if _, err := nm.Verify(id); !errors.Is(err, capability.ErrUnknownCapability) {
				n++
			}
		}
		return n
	}
}

// TestLiveCapsReplaysMintedIDs keeps liveCaps honest: were its twin to
// drift from Mint's IDs it would read 0 and hide every leak.
func TestLiveCapsReplaysMintedIDs(t *testing.T) {
	eng := sim.NewEngine(1)
	nm := capability.NewNodeManager("n", eng, rand.New(rand.NewSource(3)), map[capability.ResourceType]float64{capability.CPU: 4})
	caps := liveCaps(nm, 3)
	req := capability.MintRequest{Type: capability.CPU, Amount: 1e-9, Dedicated: true, NotAfter: time.Hour}
	a, errA := nm.Mint(req)
	_, errB := nm.Mint(req)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if n := caps(); n != 2 {
		t.Fatalf("two minted: liveCaps = %d", n)
	}
	nm.Release(a.ID)
	eng.RunUntil(2 * time.Hour) // expired but still held
	if n := caps(); n != 1 {
		t.Fatalf("one released, one expired: liveCaps = %d", n)
	}
}

// offerBackend is one enforcement under test with a reading of everything
// it has committed.
type offerBackend struct {
	name   string
	eng    *sim.Engine
	r      *Responder
	holds  func() string
	usable func(o Offer) bool // what the backend may accept at all
}

func fuzzBackends() []*offerBackend {
	positive := func(o Offer, term string) bool { v := o.Terms[term]; return v > 0 && !math.IsInf(v, 1) }
	build := func(name string, mk func(eng *sim.Engine) (Enforcement, func() string), usable func(Offer) bool) *offerBackend {
		eng := sim.NewEngine(1)
		net := simnet.New(eng)
		net.AddSite("A", 0, 0)
		net.AddHost("provider", "A", 1e6)
		enforce, holds := mk(eng)
		return &offerBackend{name: name, eng: eng, r: NewResponder(eng, net, "provider", enforce), holds: holds, usable: usable}
	}
	return []*offerBackend{
		build("capability", func(eng *sim.Engine) (Enforcement, func() string) {
			nm := capability.NewNodeManager("provider", eng, rand.New(rand.NewSource(7)),
				map[capability.ResourceType]float64{capability.CPU: 4, capability.Network: 1000})
			caps := liveCaps(nm, 7)
			return &CapabilityEnforcement{Eng: eng, NM: nm}, func() string {
				return fmt.Sprintf("%d caps, %dµ cpu, %dµ net", caps(), micro(nm.Available(capability.CPU)), micro(nm.Available(capability.Network)))
			}
		}, func(o Offer) bool { return positive(o, "cpu") || positive(o, "net") }),
		build("batch", func(eng *sim.Engine) (Enforcement, func() string) {
			bm := gram.NewBatchManager(eng, "batch", 8)
			return &BatchEnforcement{BM: bm}, func() string {
				return fmt.Sprintf("%d slots free from now on", freeSlots(eng, bm))
			}
		}, func(o Offer) bool {
			slots, start, dur := o.Terms["slots"], o.Terms["start"], o.Terms["duration"]
			return slots >= 1 && slots == math.Trunc(slots) && start >= 0 && start < 9.2e9 && dur > 0 && dur < 9.2e9
		}),
		build("sharp", func(eng *sim.Engine) (Enforcement, func() string) {
			rng := rand.New(rand.NewSource(8))
			nm := capability.NewNodeManager("A", eng, rand.New(rand.NewSource(9)), map[capability.ResourceType]float64{capability.CPU: 4})
			caps := liveCaps(nm, 9)
			auth := sharp.NewAuthority(eng, "A", identity.NewPrincipal("auth@A", rng), nm,
				map[capability.ResourceType]float64{capability.CPU: 4})
			return &SharpEnforcement{Authority: auth, Holder: identity.NewPrincipal("responder", rng), Clock: eng}, func() string {
				return fmt.Sprintf("%d leases, %d caps, %dµ cpu", auth.LiveLeases(), caps(), micro(nm.Available(capability.CPU)))
			}
		}, func(o Offer) bool { return positive(o, "cpu") }),
	}
}

// FuzzOfferAgreesWithReference: whatever template and sequence of create,
// renegotiate, terminate and clock advances the bytes script, on each of
// the three enforcement backends: nothing panics; an offer refValidate
// refuses is refused with ErrConstraint; any other refusal is exactly one
// of ErrConstraint and ErrEnforcement; a refusal commits nothing and, for
// a renegotiation, keeps the agreement observed; nothing the backend
// cannot read as a quantity is accepted; and once every agreement is
// terminated the backend holds what it held at the start.
func FuzzOfferAgreesWithReference(f *testing.F) {
	const all = 0x1f                          // every numeric term rides along
	f.Add([]byte{0x01, 0x04, 0x01, 14, 0x03}) // cpu constrained: create cpu=2 for an hour, terminate it
	f.Add([]byte{0x01, 0x00, 0x01, 0})        // cpu constrained, cpu=NaN
	f.Add([]byte{0x00, 0x00, all, 13, 13, 0, 13, 14, 0x00, all, 13, 13, 9, 7, 14, 0x00, all, 13, 13, 13, 13, 8})
	f.Add([]byte{0x1c, 0x04, all, 13, 13, 12, 14, 14, 0x02, all, 13, 13, 9, 14, 14, 0x02, all, 13, 13, 13, 1, 14, 0x07, 0x03})
	f.Add([]byte{0x61, 0x00, 0x21 | 0x80, 14, 0x00, 0x41, 14, 0x00, 0x01, 14}) // os=linux and a queue: met, wrong os, both missing
	f.Add([]byte{0x00, 0x00, 0x03, 5, 0})                                      // cpu=1e-9 minted, net=NaN refused: the cpu mint rolls back
	f.Add([]byte{0x00, 0x00, 0x01, 5, 0x03})                                   // cpu=1e-9 accepted, then terminated
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, b := range fuzzBackends() {
			runOfferScript(t, b, script)
		}
	})
}

func runOfferScript(t *testing.T, b *offerBackend, script []byte) {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		c := script[0]
		script = script[1:]
		return c
	}
	tmpl := Template{Name: "t"}
	shape := next()
	for k, c := range fuzzTerms {
		if shape>>uint(k)&1 == 1 {
			tmpl.Constraints = append(tmpl.Constraints, c)
		}
	}
	if shape&0x20 != 0 {
		tmpl.Constraints = append(tmpl.Constraints, TermConstraint{Name: "os", Exact: "linux", IsString: true})
	}
	if shape&0x40 != 0 {
		tmpl.Constraints = append(tmpl.Constraints, TermConstraint{Name: "queue", IsString: true})
	}
	b.r.AddTemplate(tmpl)
	start := b.holds()
	var ids []string

	for step := 0; len(script) > 0; step++ {
		op := next()
		if op&3 == 3 {
			if op&4 != 0 {
				b.eng.RunUntil(b.eng.Now() + 30*time.Minute)
			} else if len(ids) > 0 {
				id := ids[int(op>>4)%len(ids)]
				ack, err := b.r.handleTerminate("consumer", id)
				if err != nil || ack.State == Observed || ack.State == Pending {
					t.Fatalf("%s step %d: terminate %s = (%+v, %v)", b.name, step, id, ack, err)
				}
			}
			continue
		}
		o := Offer{Template: "t", Terms: map[string]float64{}, Strings: map[string]string{},
			Lifetime: time.Duration(op>>2&3) * time.Hour, Initiator: "consumer"}
		carried := next()
		for k, c := range fuzzTerms {
			if carried>>uint(k)&1 == 1 {
				o.Terms[c.Name] = fuzzValue(c, next())
			}
		}
		if os := carried >> 5 & 3; os != 0 {
			o.Strings["os"] = [...]string{"", "linux", "solaris", ""}[os]
		}
		if carried&0x80 != 0 {
			o.Strings["queue"] = "short"
		}

		before := b.holds()
		what, kept := "create", State(Rejected)
		var ack Ack
		var err error
		if op&3 == 2 && len(ids) > 0 {
			id := ids[int(op>>4)%len(ids)]
			if b.r.Agreement(id).State() != Observed {
				continue // ErrNotObserved: not an offer's fault
			}
			what, kept = "renegotiate "+id, Observed
			ack, err = b.r.handleRenegotiate("consumer", RenegotiateRequest{ID: id, Offer: o})
		} else {
			ack, err = b.r.handleCreate("consumer", o)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s step %d: %s %v %v = (%+v, %v): %s", b.name, step, what, o.Terms, o.Strings, ack, err, fmt.Sprintf(format, args...))
		}
		switch constraint, enforcement := errors.Is(err, ErrConstraint), errors.Is(err, ErrEnforcement); {
		case err == nil:
			if ack.State != Observed || !refValidate(tmpl, o) || !b.usable(o) {
				fail("accepted; the reference validates it %v, the backend can read it %v", refValidate(tmpl, o), b.usable(o))
			}
			if what == "create" {
				ids = append(ids, ack.ID)
			}
		case !refValidate(tmpl, o) && !constraint, constraint == enforcement:
			fail("want ErrConstraint for an offer outside its template, else exactly one of it and ErrEnforcement")
		case ack.State != kept || b.holds() != before:
			fail("a refusal must leave state %v and the backend holding %q, not %q", kept, before, b.holds())
		}
	}

	for _, id := range ids {
		if _, err := b.r.handleTerminate("consumer", id); err != nil {
			t.Fatalf("%s: terminate %s: %v", b.name, id, err)
		}
	}
	b.eng.Run()
	if end := b.holds(); end != start {
		t.Fatalf("%s: every agreement terminated, yet the backend holds %q, not the %q it started with", b.name, end, start)
	}
}
