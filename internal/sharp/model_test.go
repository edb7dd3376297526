package sharp

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sim"
)

// historyModel is the append-only lease log the authority used to keep:
// every granted record in grant order, released ones flagged. The live
// store must always hold exactly its unreleased records.
type historyModel struct {
	recs     []modelLease
	byID     map[string]int
	live     int
	peakLive int
}

type modelLease struct {
	rec      LeaseRecord
	slot     int32 // the authority slot the lease was granted in
	released bool
}

func (m *historyModel) grant(rec LeaseRecord, slot int32) {
	m.byID[rec.Lease.ID] = len(m.recs)
	m.recs = append(m.recs, modelLease{rec: rec, slot: slot})
	m.live++
	m.peakLive = max(m.peakLive, m.live)
}

// renew applies a successful Renew the way its contract states: the
// record's leaf and root terms advance to the presented tickets' and the
// renewal is stamped.
func (m *historyModel) renew(id string, tickets []*Ticket, now time.Duration) {
	r := &m.recs[m.byID[id]].rec
	leafNA, rootNA := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for _, t := range tickets {
		leafNA = min(leafNA, t.Leaf().NotAfter)
		rootNA = min(rootNA, t.Root().NotAfter)
	}
	r.LeafNotAfter = max(r.LeafNotAfter, leafNA)
	r.RootNotAfter = max(r.RootNotAfter, rootNA)
	r.Renewals++
	r.LastRenewedAt = now
}

func (m *historyModel) release(id string) {
	m.recs[m.byID[id]].released = true
	m.live--
}

// pick returns a uniformly chosen record with the given released state.
func (m *historyModel) pick(rng *rand.Rand, released bool, ok func(modelLease) bool) (modelLease, bool) {
	var cands []modelLease
	for _, r := range m.recs {
		if r.released == released && (ok == nil || ok(r)) {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return modelLease{}, false
	}
	return cands[rng.Intn(len(cands))], true
}

// stockKey is one (site, type) line of the agent's stock.
type stockKey struct {
	site string
	typ  capability.ResourceType
}

// leaseOps counts the model run's effective operations, so a generator
// change that stops reaching a path fails the test instead of passing
// vacuously.
type leaseOps struct {
	granted, renewed, released, doubleReleased, renewReused, sellRefused int
}

// TestLeaseStoreMatchesHistoryModel drives seeded op sequences —
// sell-and-redeem, renew, release, double release, and renew of a
// released ID whose slot now holds another lease — through one authority
// and one agent, checking after every op that:
//   - LeaseRecords is the history model's unreleased records as a set,
//     and LiveLeases their count;
//   - LeaseSlots never exceeds the peak live count;
//   - every released ID answers ErrUnknownLease, even while its old slot
//     holds a new lease;
//   - every live lease lies inside its recorded leaf and root terms;
//   - per (site, type), what the agent acquired equals its Inventory plus
//     what it sold, and no stock entry is sold out.
func TestLeaseStoreMatchesHistoryModel(t *testing.T) {
	var ops leaseOps
	for seed := int64(1); seed <= 16; seed++ {
		runLeaseModel(t, seed, 150, &ops)
		if t.Failed() {
			t.Fatalf("seed %d diverged from the model", seed)
		}
	}
	if ops.granted == 0 || ops.renewed == 0 || ops.released == 0 ||
		ops.doubleReleased == 0 || ops.renewReused == 0 || ops.sellRefused == 0 {
		t.Errorf("op generator left a path unreached: %+v", ops)
	}
}

func runLeaseModel(t *testing.T, seed int64, steps int, ops *leaseOps) {
	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	capacity := map[capability.ResourceType]float64{capability.CPU: 8, capability.Memory: 8}
	nm := capability.NewNodeManager("A", eng, rng, capacity)
	auth := NewAuthority(eng, "A", identity.NewPrincipal("authority@A", rng), nm, capacity)
	auth.OversellFactor = 1e6 // the issue budget is cumulative; capacity caps live leases
	agent := NewAgent(identity.NewPrincipal("agent", rng))
	sm := identity.NewPrincipal("sm", rng)
	types := []capability.ResourceType{capability.CPU, capability.Memory}

	model := &historyModel{byID: make(map[string]int)}
	acquired := make(map[stockKey]float64)
	sold := make(map[stockKey]float64)

	// Amounts are multiples of 1/2, so every sum below is exact.
	restock := func(typ capability.ResourceType, amount float64, until time.Duration) {
		now := eng.Now()
		tk, err := auth.IssueTicket(agent.Name, agent.Key(), typ, amount, now, until)
		if err != nil {
			t.Fatalf("issue: %v", err)
		}
		if err := agent.Acquire(tk); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		acquired[stockKey{"A", typ}] += amount
	}
	sell := func(typ capability.ResourceType, amount float64, until time.Duration) []*Ticket {
		subs, err := agent.Sell(sm.Name, sm.Public(), "A", typ, amount, eng.Now(), until)
		if errors.Is(err, ErrInventory) {
			ops.sellRefused++ // the conservation check proves stock untouched
			return nil
		}
		if err != nil {
			t.Fatalf("sell %v of %v: %v", amount, typ, err)
		}
		for _, s := range subs {
			sold[stockKey{"A", typ}] += s.Leaf().Amount
		}
		return subs
	}

	for step := 0; step < steps; step++ {
		eng.RunUntil(eng.Now() + time.Duration(rng.Intn(30))*time.Minute)
		now := eng.Now()
		switch op := rng.Intn(8); {
		case op < 3: // restock sometimes, then sell and redeem
			typ := types[rng.Intn(len(types))]
			if rng.Intn(2) == 0 {
				restock(typ, float64(1+rng.Intn(8))/2, now+time.Duration(1+rng.Intn(6))*hour)
			}
			for _, sub := range sell(typ, float64(1+rng.Intn(4))/2, now+2*hour) {
				lease, err := auth.Redeem(sub)
				if errors.Is(err, ErrConflict) {
					continue
				}
				if err != nil {
					t.Fatalf("redeem: %v", err)
				}
				leaf := sub.Leaf()
				model.grant(LeaseRecord{
					Lease:         lease,
					LeafNotBefore: leaf.NotBefore,
					LeafNotAfter:  leaf.NotAfter,
					RootNotAfter:  sub.Root().NotAfter,
					RedeemedAt:    now,
				}, auth.recordOf[lease.ID])
				ops.granted++
			}
		case op == 3: // renew a live lease from fresh stock
			ml, ok := model.pick(rng, false, func(r modelLease) bool { return now < r.rec.Lease.NotAfter })
			if !ok {
				break
			}
			l := ml.rec.Lease
			until := l.NotAfter + time.Duration(1+rng.Intn(3))*hour
			restock(l.Type, l.Amount, until)
			tickets := sell(l.Type, l.Amount, until)
			if tickets == nil {
				break
			}
			if _, err := auth.Renew(l.ID, tickets...); err != nil {
				break // e.g. the sale clamped to older stock that ends first
			}
			model.renew(l.ID, tickets, now)
			ops.renewed++
		case op < 6:
			if ml, ok := model.pick(rng, false, nil); ok {
				auth.ReleaseLease(ml.rec.Lease)
				model.release(ml.rec.Lease.ID)
				ops.released++
			}
		case op == 6:
			if ml, ok := model.pick(rng, true, nil); ok {
				auth.ReleaseLease(ml.rec.Lease)
				ops.doubleReleased++
			}
		default: // renew a released ID whose slot another lease now holds
			reused := func(r modelLease) bool {
				for _, o := range model.recs {
					if !o.released && o.slot == r.slot {
						return true
					}
				}
				return false
			}
			ml, ok := model.pick(rng, true, reused)
			if !ok {
				break
			}
			l := ml.rec.Lease
			restock(l.Type, l.Amount, now+hour)
			tickets := sell(l.Type, l.Amount, now+hour)
			if tickets == nil {
				break
			}
			if _, err := auth.Renew(l.ID, tickets...); !errors.Is(err, ErrUnknownLease) {
				t.Errorf("step %d: renew of released %s in reused slot %d: %v", step, l.ID, ml.slot, err)
			}
			ops.renewReused++
		}
		checkLeaseModel(t, step, auth, model)
		checkStockModel(t, step, agent, acquired, sold)
	}
}

func checkLeaseModel(t *testing.T, step int, auth *Authority, model *historyModel) {
	t.Helper()
	want := make(map[string]LeaseRecord)
	for _, r := range model.recs {
		if !r.released {
			want[r.rec.Lease.ID] = r.rec
		}
	}
	got := leaseRecords(auth)
	if len(got) != len(want) || auth.LiveLeases() != model.live {
		t.Errorf("step %d: %d records, LiveLeases %d; model has %d live", step, len(got), auth.LiveLeases(), model.live)
	}
	for _, r := range got {
		if w, ok := want[r.Lease.ID]; !ok || r != w {
			t.Errorf("step %d: record %+v, model %+v (known %v)", step, r, w, ok)
		}
		l := r.Lease
		if l.NotBefore < r.LeafNotBefore || l.NotAfter > r.LeafNotAfter || l.NotAfter > r.RootNotAfter {
			t.Errorf("step %d: lease %s [%v,%v) outside leaf [%v,%v) or root end %v",
				step, l.ID, l.NotBefore, l.NotAfter, r.LeafNotBefore, r.LeafNotAfter, r.RootNotAfter)
		}
	}
	if auth.LeaseSlots() > model.peakLive {
		t.Errorf("step %d: %d slots, peak live %d", step, auth.LeaseSlots(), model.peakLive)
	}
	for _, r := range model.recs {
		if _, err := auth.Renew(r.rec.Lease.ID); r.released != errors.Is(err, ErrUnknownLease) {
			t.Errorf("step %d: renew %s (released %v): %v", step, r.rec.Lease.ID, r.released, err)
		}
	}
}

func checkStockModel(t *testing.T, step int, agent *Agent, acquired, sold map[stockKey]float64) {
	t.Helper()
	for k, acq := range acquired {
		if inv := agent.Inventory(k.site, k.typ); acq != inv+sold[k] {
			t.Errorf("step %d: %v acquired %v, inventory %v + sold %v", step, k, acq, inv, sold[k])
		}
	}
	for i, s := range agent.stock {
		if s.remaining == 0 {
			t.Errorf("step %d: stock entry %d is sold out but kept", step, i)
		}
	}
}

// TestSellAllOrNothing: a sale the live stock cannot cover fails whole.
// The long entry covers [2h, 3h) but the short one ended at 1h, so 8 of
// the 10 in stock cannot be sold over that window, and nothing may be
// consumed trying. 5 can, from the long entry alone.
func TestSellAllOrNothing(t *testing.T) {
	f := newFixture(t)
	stock(t, f, 5, 0, 10*hour)
	stock(t, f, 5, 0, hour)
	if _, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 8, 2*hour, 3*hour); !errors.Is(err, ErrInventory) {
		t.Fatalf("sale of 8 over [2h,3h): %v, want ErrInventory", err)
	}
	if got := f.agent.Inventory("A", capability.CPU); got != 10 || f.agent.SoldN != 0 {
		t.Fatalf("after the refused sale: inventory %v, sold %d; want 10, 0", got, f.agent.SoldN)
	}
	subs, err := f.agent.Sell(f.sm.Name, f.sm.Public(), "A", capability.CPU, 5, 2*hour, 3*hour)
	if err != nil {
		t.Fatal(err)
	}
	leaf := subs[0].Leaf()
	if len(subs) != 1 || subs[0].Root().NotAfter != 10*hour || leaf.Serial != 1 ||
		leaf.NotBefore != 2*hour || leaf.NotAfter != 3*hour {
		t.Fatalf("sale of 5 = %d tickets, leaf %+v; want one from the 10h entry, serial 1", len(subs), leaf)
	}
	if got := f.agent.Inventory("A", capability.CPU); got != 5 || len(f.agent.stock) != 1 {
		t.Errorf("after selling 5: inventory %v over %d entries, want 5 over 1", got, len(f.agent.stock))
	}
}

// leaseRecords lists a's live lease records in slot order.
func leaseRecords(a *Authority) []LeaseRecord {
	var out []LeaseRecord
	a.EachLeaseRecord(func(r LeaseRecord) { out = append(out, r) })
	return out
}
