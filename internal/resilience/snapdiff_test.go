package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/snaptest"
)

var errSnapFlaky = errors.New("resilience: snapdiff flaky op")

// snapDriver hoists the differential scenario's state — log, sequence
// counter, failure rng — into a SnapRoot-registered struct, per the
// snapshot-safety contract the package's retry loops themselves follow
// (doCall structs hang off Executor.inflight for exactly this reason).
type snapDriver struct {
	eng *sim.Engine
	ex  *Executor
	br  *Breaker
	rn  *Renewer
	rng *rand.Rand
	log []string
	seq int
}

func (d *snapDriver) emit(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf("%v ", d.eng.Now())+fmt.Sprintf(format, args...))
}

// tick launches one flaky op per period: with retry loops, breaker
// transitions, and renewal cycles all in flight across the snapshot
// point, the fork must rewind every state machine mid-stride.
func (d *snapDriver) tick() {
	d.seq++
	id := d.seq
	d.ex.Do("snapdiff.op", d.br, nil, func(attempt int, settle func(error)) {
		if d.rng.Intn(3) == 0 {
			settle(errSnapFlaky)
			return
		}
		settle(nil)
	}, func(err error) {
		d.emit("op %d err=%v breaker=%s", id, err, d.br.State())
	})
}

func buildResilienceDiff(seed int64) (*sim.Engine, func() []byte) {
	eng := sim.NewEngine(seed)
	k := NewKit(eng, eng.ForkRand(), nil)
	ex, rn := k.Retry, k.Renewer
	br := k.Breakers.For("snapdiff.site")
	d := &snapDriver{eng: eng, ex: ex, br: br, rn: rn, rng: eng.ForkRand()}
	eng.SnapRoot("resilience.snapdiff", d)
	rn.Track("lease", 10*time.Minute, 10*time.Minute, br, func(target time.Duration, done func(error)) {
		if d.rng.Intn(4) == 0 {
			done(errSnapFlaky)
			return
		}
		d.emit("renewed to %v", target)
		done(nil)
	})
	eng.NewTicker(time.Minute, d.tick)
	render := func() []byte {
		var b bytes.Buffer
		for _, ln := range d.log {
			fmt.Fprintln(&b, ln)
		}
		fmt.Fprintf(&b, "attempts=%d retries=%d ok=%d fail=%d renewed=%d giveups=%d\n",
			ex.AttemptsN, ex.RetriesN, ex.OKN, ex.FailN, rn.RenewedN, rn.GiveupsN)
		return b.Bytes()
	}
	return eng, render
}

// TestForkVsColdResilience is the package's adoption of the snaptest
// scenario hook: retry backoff draws, breaker clocks, and keepalive
// cycles must all rewind exactly, so a forked run re-settles every
// in-flight op byte-identically to a cold run.
func TestForkVsColdResilience(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 4
	}
	snaptest.Scenario{
		Name:      "resilience.retry",
		Build:     buildResilienceDiff,
		WarmUntil: 15 * time.Minute,
		Horizon:   60 * time.Minute,
	}.Run(t, snaptest.Seeds(1, n))
}
