package gram

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/rsl"
	"repro/internal/sim"
	"repro/internal/simnet"
)

type gkFixture struct {
	eng   *sim.Engine
	net   *simnet.Network
	gk    *Gatekeeper
	batch *BatchManager
	alice *identity.Credential
	evil  *identity.Credential
}

func newGKFixture(t *testing.T) *gkFixture {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 30, 0)
	net.AddHost("client", "A", 1e6)
	net.AddHost("gk", "B", 1e6)

	rng := eng.ForkRand()
	ca := identity.NewCA("ca", 10000*time.Hour, rng)
	aliceP := identity.NewPrincipal("alice", rng)
	alice := identity.UserCredential(aliceP, ca.IssueUser(aliceP, 0, 5000*time.Hour))
	evilP := identity.NewPrincipal("mallory", rng)
	evil := identity.UserCredential(evilP, ca.IssueUser(evilP, 0, 5000*time.Hour))

	gm := gsi.NewGridmap()
	gm.Map("alice", "u1001")
	policy := &gsi.SitePolicy{
		Auth:    &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(ca)},
		Gridmap: gm,
	}
	gk := NewGatekeeper(net, net.Host("gk"), policy)
	batch := NewBatchManager(eng, "batch", 8)
	gk.AddManager("batch", batch)
	return &gkFixture{eng: eng, net: net, gk: gk, batch: batch, alice: alice, evil: evil}
}

func TestGatekeeperSubmitFlow(t *testing.T) {
	f := newGKFixture(t)
	var reply SubmitReply
	var err error
	var notices []StateNotice
	f.net.Host("client").Handle("cb", func(_ string, raw any) (any, error) {
		notices = append(notices, raw.(StateNotice))
		return nil, nil
	})
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred:            f.alice,
		Spec:            JobSpec{RSL: `&(executable=/bin/sim)(count=2)(maxWallTime=100)`, ActualRun: 60 * time.Second},
		CallbackHost:    "client",
		CallbackService: "cb",
	}, time.Minute, func(r SubmitReply, e error) { reply, err = r, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reply.JobID == "" || reply.State != Active {
		t.Errorf("reply = %+v", reply)
	}
	j := f.gk.Job(reply.JobID)
	if j == nil || j.State() != Done {
		t.Fatalf("job missing or not done: %+v", j)
	}
	if j.Spec.Owner != "alice" || j.Spec.LocalAccount != "u1001" {
		t.Errorf("identity mapping: owner=%q local=%q", j.Spec.Owner, j.Spec.LocalAccount)
	}
	// Callback saw the Done transition.
	sawDone := false
	for _, n := range notices {
		if n.JobID == reply.JobID && n.State == Done {
			sawDone = true
		}
	}
	if !sawDone {
		t.Errorf("notices = %+v, want Done", notices)
	}
}

// TestGatekeeperRejectsUnrepresentableWallTime: maxWallTime=1e300 used to
// convert to a negative duration, so any ActualRun "exceeded" it and the
// batch manager scheduled the wall kill in the past — a panic inside the
// gatekeeper's handler. It is a failed job with a reason instead, and so
// is a wall time that is not a number (it used to read as "missing").
func TestGatekeeperRejectsUnrepresentableWallTime(t *testing.T) {
	for lit, want := range map[string]error{"1e300": rsl.ErrRange, "-5": rsl.ErrRange, "NaN": rsl.ErrRange, "soon": rsl.ErrType} {
		f := newGKFixture(t)
		var notices []StateNotice
		f.net.Host("client").Handle("cb", func(_ string, raw any) (any, error) {
			notices = append(notices, raw.(StateNotice))
			return nil, nil
		})
		var err error
		Submit(f.net, "client", "gk", SubmitRequest{
			Cred:            f.alice,
			Spec:            JobSpec{RSL: `&(executable=x)(maxWallTime=` + lit + `)`, ActualRun: time.Second},
			CallbackHost:    "client",
			CallbackService: "cb",
		}, time.Minute, func(_ SubmitReply, e error) { err = e })
		f.eng.Run()
		if !errors.Is(err, want) {
			t.Errorf("maxWallTime=%s: err = %v, want %v", lit, err, want)
		}
		if len(notices) != 1 || notices[0].State != Failed || !strings.Contains(notices[0].Reason, "maxWallTime") {
			t.Errorf("maxWallTime=%s: notices = %+v, want one Failed naming maxWallTime", lit, notices)
		}
		if f.batch.WallKillN != 0 || f.gk.SubmitN != 0 {
			t.Errorf("maxWallTime=%s: WallKillN=%d SubmitN=%d, want 0 0", lit, f.batch.WallKillN, f.gk.SubmitN)
		}
	}
}

func TestGatekeeperRejectsUnmapped(t *testing.T) {
	f := newGKFixture(t)
	var err error
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: f.evil,
		Spec: JobSpec{RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second},
	}, time.Minute, func(_ SubmitReply, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, gsi.ErrNoMapping) {
		t.Errorf("err = %v, want ErrNoMapping", err)
	}
	if f.gk.AuthFailN != 1 {
		t.Errorf("AuthFailN = %d", f.gk.AuthFailN)
	}
}

func TestGatekeeperDelegatedProxySubmission(t *testing.T) {
	// A broker holding alice's proxy submits on her behalf: the job is
	// owned by alice, not the broker — the identity-delegation pattern.
	f := newGKFixture(t)
	proxy, errD := f.alice.Delegate("alice/proxy", 0, 12*time.Hour, nil, f.eng.ForkRand())
	if errD != nil {
		t.Fatal(errD)
	}
	var reply SubmitReply
	var err error
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: proxy,
		Spec: JobSpec{RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second},
	}, time.Minute, func(r SubmitReply, e error) { reply, err = r, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f.gk.Job(reply.JobID).Spec.Owner != "alice" {
		t.Errorf("owner = %q, want alice", f.gk.Job(reply.JobID).Spec.Owner)
	}
}

func TestGatekeeperExpiredProxyRejected(t *testing.T) {
	f := newGKFixture(t)
	proxy, _ := f.alice.Delegate("alice/proxy", 0, time.Hour, nil, f.eng.ForkRand())
	// Let the proxy expire before submitting.
	f.eng.RunUntil(2 * time.Hour)
	var err error
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: proxy,
		Spec: JobSpec{RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second},
	}, time.Minute, func(_ SubmitReply, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, gsi.ErrNotAuthenticated) {
		t.Errorf("err = %v, want ErrNotAuthenticated", err)
	}
}

// TestGatekeeperWarmSiteStillExpiresProxy: the site has already proven
// this chain's signatures (and remembers that it did), yet the validity
// window is read against the clock on every request, so the same proxy is
// admitted one nanosecond before NotAfter and refused at it.
func TestGatekeeperWarmSiteStillExpiresProxy(t *testing.T) {
	f := newGKFixture(t)
	proxy, _ := f.alice.Delegate("alice/proxy", 0, time.Hour, nil, f.eng.ForkRand())
	req := SubmitRequest{
		Cred: proxy,
		Spec: JobSpec{RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second},
	}
	var first, last, late error
	Submit(f.net, "client", "gk", req, time.Minute, func(_ SubmitReply, e error) { first = e })
	// The handler itself at the two instants either side of NotAfter (a
	// message's arrival time cannot be placed to the nanosecond).
	f.eng.At(time.Hour-1, func() { _, last = f.gk.handleSubmit("client", req) })
	f.eng.At(time.Hour, func() { _, late = f.gk.handleSubmit("client", req) })
	f.eng.Run()
	if first != nil || last != nil {
		t.Fatalf("live proxy refused: first %v, last live instant %v", first, last)
	}
	if !errors.Is(late, identity.ErrExpired) || !errors.Is(late, gsi.ErrNotAuthenticated) {
		t.Errorf("at NotAfter on a warm site: err = %v, want ErrExpired under ErrNotAuthenticated", late)
	}
	if f.gk.SubmitN != 2 || f.gk.AuthFailN != 1 {
		t.Errorf("SubmitN=%d AuthFailN=%d, want 2 1", f.gk.SubmitN, f.gk.AuthFailN)
	}
}

// TestGatekeeperRefusesNilChainLink: a credential whose chain holds a nil
// link used to panic inside the handler and take the engine with it.
func TestGatekeeperRefusesNilChainLink(t *testing.T) {
	f := newGKFixture(t)
	var err error
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: &identity.Credential{Holder: f.evil.Holder, Chain: []*identity.Certificate{nil}},
		Spec: JobSpec{RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second},
	}, time.Minute, func(_ SubmitReply, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, identity.ErrBrokenChain) || f.gk.AuthFailN != 1 {
		t.Errorf("err = %v, AuthFailN = %d; want ErrBrokenChain, 1", err, f.gk.AuthFailN)
	}
}

func TestGatekeeperStatusAndCancel(t *testing.T) {
	f := newGKFixture(t)
	var jobID string
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: f.alice,
		Spec: JobSpec{RSL: `&(executable=x)(maxWallTime=10000)`, ActualRun: 2 * time.Hour},
	}, time.Minute, func(r SubmitReply, e error) { jobID = r.JobID })
	f.eng.RunUntil(time.Minute)
	if jobID == "" {
		t.Fatal("no job id")
	}
	var st StatusReply
	f.net.Call("client", "gk", SvcStatus, jobID, time.Minute, func(r any, e error) {
		if e == nil {
			st = r.(StatusReply)
		}
	})
	f.eng.RunUntil(2 * time.Minute)
	if st.State != Active {
		t.Errorf("status = %v", st.State)
	}
	var cancelErr error
	f.net.Call("client", "gk", SvcCancel, jobID, time.Minute, func(_ any, e error) { cancelErr = e })
	f.eng.Run()
	if cancelErr != nil {
		t.Fatal(cancelErr)
	}
	if f.gk.Job(jobID).State() != Cancelled {
		t.Errorf("state = %v", f.gk.Job(jobID).State())
	}
	// Status of unknown job errors.
	var unkErr error
	f.net.Call("client", "gk", SvcStatus, "nosuch", time.Minute, func(_ any, e error) { unkErr = e })
	f.eng.Run()
	if !errors.Is(unkErr, ErrUnknownJob) {
		t.Errorf("unknown: %v", unkErr)
	}
}

func TestGatekeeperReserveRPC(t *testing.T) {
	f := newGKFixture(t)
	var rep ReserveReply
	var err error
	f.net.Call("client", "gk", SvcReserve, ReserveRequest{
		Cred: f.alice, Start: time.Hour, Dur: time.Hour, Count: 4,
	}, time.Minute, func(r any, e error) {
		if e == nil {
			rep = r.(ReserveReply)
		}
		err = e
	})
	f.eng.RunUntil(time.Minute)
	if err != nil || rep.ReservationID == "" {
		t.Fatalf("reserve = (%+v, %v)", rep, err)
	}
	// Claim it through a normal submit.
	var jr SubmitReply
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: f.alice,
		Spec: JobSpec{
			RSL:       `&(executable=x)(count=4)(maxWallTime=1800)(reservation=` + rep.ReservationID + `)`,
			ActualRun: 20 * time.Minute,
		},
	}, time.Minute, func(r SubmitReply, e error) { jr, err = r, e })
	f.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	j := f.gk.Job(jr.JobID)
	if j.State() != Done || j.Started != time.Hour {
		t.Errorf("claimed job: state=%v started=%v", j.State(), j.Started)
	}
}

func TestGatekeeperUnknownManager(t *testing.T) {
	f := newGKFixture(t)
	var err error
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred:    f.alice,
		Manager: "nosuch",
		Spec:    JobSpec{RSL: `&(executable=x)(maxWallTime=10)`, ActualRun: time.Second},
	}, time.Minute, func(_ SubmitReply, e error) { err = e })
	f.eng.Run()
	if !errors.Is(err, ErrNoSuchManager) {
		t.Errorf("err = %v", err)
	}
}

func TestGatekeeperBadRSL(t *testing.T) {
	f := newGKFixture(t)
	var err error
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: f.alice,
		Spec: JobSpec{RSL: `not rsl`, ActualRun: time.Second},
	}, time.Minute, func(_ SubmitReply, e error) { err = e })
	f.eng.Run()
	if err == nil {
		t.Error("bad RSL accepted")
	}
}

// TestUsageAccountingPerOwner: the gatekeeper's job records carry the
// authenticated owner and the run's times, which is what billing a grid
// subject for its core-seconds needs.
func TestUsageAccountingPerOwner(t *testing.T) {
	f := newGKFixture(t)
	// Two jobs with distinct slot-time footprints, both owned by alice.
	for _, spec := range []struct {
		count int
		run   time.Duration
	}{{2, 100 * time.Second}, {4, 50 * time.Second}} {
		rsl := fmt.Sprintf(`&(executable=x)(count=%d)(maxWallTime=1000)`, spec.count)
		Submit(f.net, "client", "gk", SubmitRequest{
			Cred: f.alice,
			Spec: JobSpec{RSL: rsl, ActualRun: spec.run},
		}, time.Minute, func(SubmitReply, error) {})
		f.eng.Run()
	}
	usage := make(map[string]float64)
	f.gk.EachJob(func(j *Job) { usage[j.Spec.Owner] += float64(j.Count()) * (j.Ended - j.Started).Seconds() })
	// 2×100 + 4×50 = 400 core-seconds for alice.
	if got := usage["alice"]; got != 400 {
		t.Errorf("alice usage = %v, want 400", got)
	}
}

func TestJobHistoryRecordsLifecycle(t *testing.T) {
	f := newGKFixture(t)
	var id string
	Submit(f.net, "client", "gk", SubmitRequest{
		Cred: f.alice,
		Spec: JobSpec{RSL: `&(executable=x)(count=8)(maxWallTime=100)`, ActualRun: 30 * time.Second},
	}, time.Minute, func(r SubmitReply, e error) { id = r.JobID })
	f.eng.Run()
	j := f.gk.Job(id)
	if len(j.History) < 2 {
		t.Fatalf("history = %+v", j.History)
	}
	// Pending -> Active -> Done (batch manager with free slots goes
	// Pending then immediately Active in the same instant).
	last := j.History[len(j.History)-1]
	if last.To != Done || last.At != j.Ended {
		t.Errorf("last transition = %+v", last)
	}
	for i := 1; i < len(j.History); i++ {
		if j.History[i].At < j.History[i-1].At {
			t.Error("history times decrease")
		}
	}
	if j.Ended-j.Started != 30*time.Second {
		t.Errorf("ran %v, want 30s", j.Ended-j.Started)
	}
}

func TestGatekeeperAdmitsOnCASAssertion(t *testing.T) {
	f := newGKFixture(t)
	cas := gsi.NewCAS("vo", f.eng.ForkRand())
	cas.AddMember("mallory")
	cas.Grant("submit", "gk")
	cas.Grant("submit", "other-gk")
	f.gk.policy.TrustedCAS = map[string]*identity.Principal{"vo": cas.Signer()}
	spec := JobSpec{RSL: `&(executable=/bin/sim)(maxWallTime=100)`, ActualRun: time.Second}
	var errs []error
	var replies []SubmitReply
	for _, resource := range []string{"gk", "other-gk"} {
		a, err := cas.Issue("mallory", "submit", resource, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		Submit(f.net, "client", "gk", SubmitRequest{Cred: f.evil, Assertion: a, Spec: spec}, time.Minute,
			func(r SubmitReply, e error) { replies, errs = append(replies, r), append(errs, e) })
	}
	f.eng.Run()
	if errs[0] != nil {
		t.Fatalf("assertion for this gatekeeper refused: %v", errs[0])
	}
	if j := f.gk.Job(replies[0].JobID); j.Spec.Owner != "mallory" || j.Spec.LocalAccount != "community-vo" {
		t.Errorf("admitted as (%q, %q), want (mallory, community-vo)", j.Spec.Owner, j.Spec.LocalAccount)
	}
	if !errors.Is(errs[1], gsi.ErrBadAssertion) || f.gk.AuthFailN != 1 {
		t.Errorf("assertion for another gatekeeper: %v, AuthFailN = %d", errs[1], f.gk.AuthFailN)
	}
}
