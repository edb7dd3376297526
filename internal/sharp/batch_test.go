package sharp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sim"
	"repro/internal/sim/snaptest"
)

// twinAuthorities builds two authorities for the same site sharing one
// signing key, each over its own (identical) node manager — the rig for
// proving batch redemption is observably identical to a sequential
// redeem loop.
func twinAuthorities(t *testing.T, capacity float64) (*sim.Engine, *Authority, *Authority) {
	t.Helper()
	eng := sim.NewEngine(7)
	rng := rand.New(rand.NewSource(7))
	signer := identity.NewPrincipal("authority@A", rng)
	mk := func(seed int64) *Authority {
		nm := capability.NewNodeManager("A", eng, rand.New(rand.NewSource(seed)),
			map[capability.ResourceType]float64{capability.CPU: capacity})
		return NewAuthority(eng, "A", signer, nm, map[capability.ResourceType]float64{capability.CPU: capacity})
	}
	return eng, mk(11), mk(11)
}

// redeemLoop is the reference RedeemBatch is compared against: Redeem
// per ticket, in order.
func redeemLoop(a *Authority, tickets []*Ticket) []RedeemResult {
	out := make([]RedeemResult, len(tickets))
	for i, tk := range tickets {
		if tk == nil {
			out[i].Err = fmt.Errorf("%w: nil ticket", ErrBadChain)
			continue
		}
		out[i].Lease, out[i].Err = a.Redeem(tk)
	}
	return out
}

// sameResults fails unless the two result lists agree entry by entry:
// same error text, or same lease ID, amount and term.
func sameResults(t *testing.T, seq, batch []RedeemResult) {
	t.Helper()
	if len(seq) != len(batch) {
		t.Fatalf("results: sequential %d, batch %d", len(seq), len(batch))
	}
	for i := range seq {
		s, b := seq[i], batch[i]
		if (s.Err == nil) != (b.Err == nil) {
			t.Fatalf("ticket %d: sequential err %v, batch err %v", i, s.Err, b.Err)
		}
		if s.Err != nil {
			if s.Err.Error() != b.Err.Error() {
				t.Errorf("ticket %d: error text diverged:\n  seq:   %v\n  batch: %v", i, s.Err, b.Err)
			}
			continue
		}
		if s.Lease.ID != b.Lease.ID || s.Lease.Amount != b.Lease.Amount ||
			s.Lease.NotAfter != b.Lease.NotAfter {
			t.Errorf("ticket %d: lease diverged: %+v vs %+v", i, s.Lease, b.Lease)
		}
	}
}

// TestRedeemBatchMatchesSequential is the differential gate: the same
// ticket mix — valid chains, an in-batch double spend, a tampered
// signature, and capacity conflicts — must produce identical leases,
// identical errors, and identical counters whether redeemed one at a
// time or through RedeemBatch.
func TestRedeemBatchMatchesSequential(t *testing.T) {
	_, seqAuth, batchAuth := twinAuthorities(t, 6)
	rng := rand.New(rand.NewSource(21))
	agent := NewAgent(identity.NewPrincipal("agent-1", rng))
	sm := identity.NewPrincipal("sm", rng)

	seqAuth.OversellFactor = 3
	root, err := seqAuth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 12, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	agent.Acquire(root)
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		subs, err := agent.Sell(sm.Name, sm.Public(), "A", capability.CPU, 3, 0, hour)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, subs...)
	}
	// Double spend: the first ticket appears again mid-batch.
	tickets = append(tickets, tickets[0])
	// Forgery: a tampered copy of the second ticket.
	evil := &Ticket{Chain: append([]Claim(nil), tickets[1].Chain...)}
	evil.Chain[len(evil.Chain)-1].Amount = 99
	tickets = append(tickets, evil)
	// With capacity 6 and 3-CPU leaves, the third valid redeem conflicts.

	seqRes := redeemLoop(seqAuth, tickets)
	batchRes := batchAuth.RedeemBatch(tickets)

	sameResults(t, seqRes, batchRes)
	if seqAuth.RedeemOK != batchAuth.RedeemOK ||
		seqAuth.RedeemConflict != batchAuth.RedeemConflict ||
		seqAuth.ReplayRejN != batchAuth.ReplayRejN {
		t.Errorf("counters diverged: seq ok/conflict/replay %d/%d/%d, batch %d/%d/%d",
			seqAuth.RedeemOK, seqAuth.RedeemConflict, seqAuth.ReplayRejN,
			batchAuth.RedeemOK, batchAuth.RedeemConflict, batchAuth.ReplayRejN)
	}
	if seqAuth.LiveLeases() != batchAuth.LiveLeases() {
		t.Errorf("live leases: seq %d, batch %d", seqAuth.LiveLeases(), batchAuth.LiveLeases())
	}
	sr, br := seqAuth.LeaseRecords(), batchAuth.LeaseRecords()
	if len(sr) != len(br) {
		t.Fatalf("audit log length: seq %d, batch %d", len(sr), len(br))
	}
	for i := range sr {
		if sr[i].Lease.ID != br[i].Lease.ID || sr[i].LeafNotAfter != br[i].LeafNotAfter {
			t.Errorf("audit record %d diverged", i)
		}
	}
}

// TestRedeemBatchNilTicket: a nil entry yields ErrBadChain in place
// without disturbing its neighbors.
func TestRedeemBatchNilTicket(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	res := f.auth.RedeemBatch([]*Ticket{nil, tk})
	if !errors.Is(res[0].Err, ErrBadChain) {
		t.Errorf("nil ticket: %v", res[0].Err)
	}
	if res[1].Err != nil || res[1].Lease == nil {
		t.Errorf("neighbor: %+v", res[1])
	}
}

// TestRedeemBatchCountsMixedBatch pins the amortization counters on a
// batch that is not all good news — a nil entry, a forged link and a
// replay among valid tickets: BatchSigN is the links of the non-nil
// tickets, BatchVerifiedN is exactly the memo's misses (one
// ed25519.Verify each, the forged link's failed one included), and the
// results are those of a Redeem loop on a twin authority.
func TestRedeemBatchCountsMixedBatch(t *testing.T) {
	_, seqAuth, batchAuth := twinAuthorities(t, 8)
	rng := rand.New(rand.NewSource(23))
	agent := NewAgent(identity.NewPrincipal("agent-1", rng))
	sm := identity.NewPrincipal("sm", rng)

	root, err := seqAuth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 3, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	agent.Acquire(root)
	var subs []*Ticket
	for i := 0; i < 3; i++ {
		s, err := agent.Sell(sm.Name, sm.Public(), "A", capability.CPU, 1, 0, hour)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s...)
	}
	forged := &Ticket{Chain: append([]Claim(nil), subs[1].Chain...)}
	forged.Chain[1].Amount = 2
	tickets := []*Ticket{nil, subs[0], forged, subs[1], subs[0], subs[2]}

	_, missesBefore, _ := batchAuth.SigCacheStats()
	batchRes := batchAuth.RedeemBatch(tickets)
	_, missesAfter, _ := batchAuth.SigCacheStats()
	sameResults(t, redeemLoop(seqAuth, tickets), batchRes)

	if !errors.Is(batchRes[0].Err, ErrBadChain) {
		t.Errorf("nil ticket: %v", batchRes[0].Err)
	}
	if !errors.Is(batchRes[2].Err, ErrBadSignature) {
		t.Errorf("forged link: %v", batchRes[2].Err)
	}
	if !errors.Is(batchRes[4].Err, ErrReplayed) {
		t.Errorf("replay: %v", batchRes[4].Err)
	}
	if batchAuth.BatchSigN != 5*2 {
		t.Errorf("BatchSigN = %d, want 10 (five non-nil depth-2 tickets)", batchAuth.BatchSigN)
	}
	if batchAuth.BatchVerifiedN != missesAfter-missesBefore {
		t.Errorf("BatchVerifiedN = %d, memo misses rose by %d", batchAuth.BatchVerifiedN, missesAfter-missesBefore)
	}
	// Root link once, three honest leaves, one forged leaf; the replayed
	// ticket is two hits.
	if batchAuth.BatchVerifiedN != 5 {
		t.Errorf("BatchVerifiedN = %d, want 5", batchAuth.BatchVerifiedN)
	}
}

// TestRedeemBatchAmortizesSharedPrefixes is the deterministic form of
// the >=3x acceptance gate: 64 depth-4 tickets resold from one stocked
// ticket present 256 link signatures but share a 3-link prefix, so the
// batch must resolve them with at most a third as many ed25519.Verify
// calls as the naive one-per-link count (expected: 3 + 64 = 67 vs 256,
// ~3.8x). Wall-clock throughput rides on exactly this ratio — asserting
// on counters keeps the gate timing-independent.
func TestRedeemBatchAmortizesSharedPrefixes(t *testing.T) {
	eng := sim.NewEngine(3)
	rng := rand.New(rand.NewSource(31))
	signer := identity.NewPrincipal("authority@A", rng)
	nm := capability.NewNodeManager("A", eng, rng, map[capability.ResourceType]float64{capability.CPU: 64})
	auth := NewAuthority(eng, "A", signer, nm, map[capability.ResourceType]float64{capability.CPU: 64})
	agent := NewAgent(identity.NewPrincipal("agent", rng))
	sub := NewAgent(identity.NewPrincipal("sub-agent", rng))
	sub2 := NewAgent(identity.NewPrincipal("sub-sub-agent", rng))
	sm := identity.NewPrincipal("sm", rng)

	root, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 64, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	agent.Acquire(root)
	mid, err := agent.Sell(sub.Name, sub.Key(), "A", capability.CPU, 64, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	sub.Acquire(mid[0])
	mid2, err := sub.Sell(sub2.Name, sub2.Key(), "A", capability.CPU, 64, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	sub2.Acquire(mid2[0])
	tickets := make([]*Ticket, 0, 64)
	for i := 0; i < 64; i++ {
		subs, err := sub2.Sell(sm.Name, sm.Public(), "A", capability.CPU, 1, 0, hour)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs[0].Chain) != 4 {
			t.Fatalf("chain depth = %d, want 4", len(subs[0].Chain))
		}
		tickets = append(tickets, subs...)
	}

	res := auth.RedeemBatch(tickets)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("redeem %d: %v", i, r.Err)
		}
	}
	if auth.BatchSigN != 64*4 {
		t.Fatalf("BatchSigN = %d, want 256", auth.BatchSigN)
	}
	if auth.BatchVerifiedN != 3+64 {
		t.Errorf("BatchVerifiedN = %d, want 67 (3 shared prefix links + 64 leaves)", auth.BatchVerifiedN)
	}
	if auth.BatchVerifiedN*3 > auth.BatchSigN {
		t.Errorf("amortization below 3x: %d verifies for %d link signatures",
			auth.BatchVerifiedN, auth.BatchSigN)
	}
}

// TestBatchForgeryStillRejected: the PR 9 forgery kit must not slip
// through RedeemBatch — a tampered claim misses the memo (its
// digest differs) and fails the real verification.
func TestBatchForgeryStillRejected(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 0, hour)
	// Prime the cache with the honest ticket.
	if res := f.auth.RedeemBatch([]*Ticket{tk}); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	evil := &Ticket{Chain: append([]Claim(nil), tk.Chain...)}
	evil.Chain[0].Amount = 10
	if res := f.auth.RedeemBatch([]*Ticket{evil}); !errors.Is(res[0].Err, ErrBadSignature) {
		t.Errorf("tampered via batch: %v", res[0].Err)
	}
}

// TestSigCacheCrossesRedeems: re-presented prefixes cost zero verifies
// on later batches — the cross-batch memo at work.
func TestSigCacheCrossesRedeems(t *testing.T) {
	f := newFixture(t)
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 6, 0, hour)
	f.agent.Acquire(tk)
	first, _ := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 1, 0, hour)
	second, _ := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 1, 0, hour)
	f.auth.RedeemBatch(first)
	verifiedAfterFirst := f.auth.BatchVerifiedN
	f.auth.RedeemBatch(second)
	// Second batch shares its 2-link prefix with the first: only the new
	// leaf claim needs a real verification.
	if got := f.auth.BatchVerifiedN - verifiedAfterFirst; got != 1 {
		t.Errorf("second batch verified %d signatures, want 1 (leaf only)", got)
	}
}

// TestCompactLeaseStoreRecycles: in compact mode released slots recycle
// through the free list, so the slot count tracks peak concurrency, not
// cumulative grants — the O(live)-memory property the planetary scale
// run depends on.
func TestCompactLeaseStoreRecycles(t *testing.T) {
	f := newFixture(t)
	f.auth.SetCompactLeases(true)
	f.auth.OversellFactor = 10 // issue budget is cumulative; capacity still caps live leases

	redeemOne := func() *Lease {
		t.Helper()
		tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour)
		if err != nil {
			t.Fatal(err)
		}
		l, err := f.auth.Redeem(tk)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	var live []*Lease
	for i := 0; i < 10; i++ {
		live = append(live, redeemOne())
	}
	if f.auth.LiveLeases() != 10 || f.auth.LeaseSlots() != 10 {
		t.Fatalf("after 10 grants: live=%d slots=%d", f.auth.LiveLeases(), f.auth.LeaseSlots())
	}
	for _, l := range live[:6] {
		f.auth.ReleaseLease(l)
	}
	if f.auth.LiveLeases() != 4 {
		t.Fatalf("after 6 releases: live=%d", f.auth.LiveLeases())
	}
	for i := 0; i < 6; i++ {
		redeemOne()
	}
	// 16 grants total, but released slots were reused: still 10 slots.
	if f.auth.LiveLeases() != 10 || f.auth.LeaseSlots() != 10 {
		t.Errorf("after recycling: live=%d slots=%d, want 10/10", f.auth.LiveLeases(), f.auth.LeaseSlots())
	}
	if got := len(f.auth.LeaseRecords()); got != 10 {
		t.Errorf("compact audit log holds %d records, want 10 live", got)
	}
	// A released lease is gone: renewing it must fail as unknown, even
	// though its old slot now hosts a different lease.
	tk, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 1, 0, hour)
	if _, err := f.auth.Renew(live[0].ID, tk); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("renew of released lease: %v", err)
	}
	// Double release of an already-recycled lease must be inert.
	before := f.auth.LiveLeases()
	f.auth.ReleaseLease(live[0])
	if f.auth.LiveLeases() != before {
		t.Errorf("double release changed live count: %d -> %d", before, f.auth.LiveLeases())
	}
}

// TestDefaultLeaseStoreKeepsHistory: without opting in, the audit log
// still retains released leases in grant order — what the chaos
// invariant checkers consume.
func TestDefaultLeaseStoreKeepsHistory(t *testing.T) {
	f := newFixture(t)
	tk1, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 3, 0, hour)
	tk2, _ := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 3, 0, hour)
	l1, _ := f.auth.Redeem(tk1)
	l2, _ := f.auth.Redeem(tk2)
	f.auth.ReleaseLease(l1)
	recs := f.auth.LeaseRecords()
	if len(recs) != 2 {
		t.Fatalf("history length %d, want 2", len(recs))
	}
	if recs[0].Lease.ID != l1.ID || !recs[0].Released {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Lease.ID != l2.ID || recs[1].Released {
		t.Errorf("record 1 = %+v", recs[1])
	}
	if f.auth.LiveLeases() != 1 || f.auth.LeaseSlots() != 2 {
		t.Errorf("live=%d slots=%d, want 1/2", f.auth.LiveLeases(), f.auth.LeaseSlots())
	}
}

// compactSnapDriver hoists the fork-vs-cold scenario's state into one
// SnapRoot-registered struct: the authority (flat slot slices, free
// list, handle map, signature memo, replay cache) plus the driver's own
// lease rotation — everything the snapshot walker must rewind.
type compactSnapDriver struct {
	eng   *sim.Engine
	auth  *Authority
	agent *Agent
	sm    *identity.Principal
	live  []*Lease
	seq   int
	log   []string
}

func (d *compactSnapDriver) emit(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf("%v ", d.eng.Now())+fmt.Sprintf(format, args...))
}

// tick churns the compact store: sell-and-batch-redeem a fresh lease
// each minute, renew the median lease, release the oldest once more
// than six are live. Slot recycling, generation bumps, memo growth, and
// replay-cache pruning all straddle the snapshot point.
func (d *compactSnapDriver) tick() {
	d.seq++
	now := d.eng.Now()
	tk, err := d.auth.IssueTicket(d.agent.Name, d.agent.Key(), capability.CPU, 1, now, now+20*time.Minute)
	if err != nil {
		d.emit("issue err=%v", err)
		return
	}
	d.agent.Acquire(tk)
	subs, err := d.agent.Sell(d.sm.Name, d.sm.Public(), "A", capability.CPU, 1, now, now+20*time.Minute)
	if err != nil {
		d.emit("sell err=%v", err)
		return
	}
	for _, r := range d.auth.RedeemBatch(subs) {
		if r.Err != nil {
			d.emit("redeem err=%v", r.Err)
			continue
		}
		d.live = append(d.live, r.Lease)
		d.emit("redeem %s live=%d slots=%d", r.Lease.ID, d.auth.LiveLeases(), d.auth.LeaseSlots())
	}
	if n := len(d.live); n > 3 && d.seq%3 == 0 {
		mid := d.live[n/2]
		rtk, err := d.auth.IssueTicket(d.agent.Name, d.agent.Key(), capability.CPU, 1, now, now+40*time.Minute)
		if err == nil {
			if _, err := d.auth.Renew(mid.ID, rtk); err != nil {
				d.emit("renew %s err=%v", mid.ID, err)
			} else {
				d.emit("renew %s to %v", mid.ID, mid.NotAfter)
			}
		}
	}
	for len(d.live) > 6 {
		old := d.live[0]
		d.live = d.live[1:]
		d.auth.ReleaseLease(old)
		d.emit("release %s live=%d slots=%d", old.ID, d.auth.LiveLeases(), d.auth.LeaseSlots())
	}
}

func buildCompactLeaseDiff(seed int64) (*sim.Engine, func() []byte) {
	eng := sim.NewEngine(seed)
	rng := eng.ForkRand()
	signer := identity.NewPrincipal("authority@A", rng)
	nm := capability.NewNodeManager("A", eng, eng.ForkRand(), map[capability.ResourceType]float64{capability.CPU: 8})
	auth := NewAuthority(eng, "A", signer, nm, map[capability.ResourceType]float64{capability.CPU: 8})
	auth.SetCompactLeases(true)
	auth.OversellFactor = 1000 // issue budget is cumulative across the horizon
	d := &compactSnapDriver{
		eng:   eng,
		auth:  auth,
		agent: NewAgent(identity.NewPrincipal("agent", rng)),
		sm:    identity.NewPrincipal("sm", rng),
	}
	eng.SnapRoot("sharp.compactdiff", d)
	eng.NewTicker(time.Minute, d.tick)
	render := func() []byte {
		var b bytes.Buffer
		for _, ln := range d.log {
			fmt.Fprintln(&b, ln)
		}
		hits, misses, evictions := auth.SigCacheStats()
		fmt.Fprintf(&b, "ok=%d conflict=%d renewOK=%d live=%d slots=%d free=%d sig=%d/%d/%d batch=%d/%d\n",
			auth.RedeemOK, auth.RedeemConflict, auth.RenewOK,
			auth.LiveLeases(), auth.LeaseSlots(), len(auth.leaseFree),
			hits, misses, evictions, auth.BatchVerifiedN, auth.BatchSigN)
		for _, r := range auth.LeaseRecords() {
			fmt.Fprintf(&b, "rec %s [%v,%v) renewals=%d\n", r.Lease.ID, r.LeafNotBefore, r.LeafNotAfter, r.Renewals)
		}
		return b.Bytes()
	}
	return eng, render
}

// TestForkVsColdCompactLeases: the compact lease store under churn —
// recycled slots, bumped generations, a warm signature memo — must
// rewind byte-identically through snapshot/fork.
func TestForkVsColdCompactLeases(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 3
	}
	snaptest.Scenario{
		Name:      "sharp.compact",
		Build:     buildCompactLeaseDiff,
		WarmUntil: 20 * time.Minute,
		Horizon:   75 * time.Minute,
	}.Run(t, snaptest.Seeds(1, n))
}
