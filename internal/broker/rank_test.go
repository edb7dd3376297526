package broker

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/sharp"
	"repro/internal/trust"
)

// stubSeller claims a fixed inventory at every site and never sells.
type stubSeller struct {
	name string
	inv  float64
}

func (s stubSeller) SellerName() string                                { return s.name }
func (s stubSeller) Inventory(string, capability.ResourceType) float64 { return s.inv }
func (s stubSeller) Sell(string, ed25519.PublicKey, string, capability.ResourceType, float64, time.Duration, time.Duration) ([]*sharp.Ticket, error) {
	return nil, errors.New("stub seller sells nothing")
}

// refRank is rank as it stood before it kept a buffer: fresh slices for
// the eligible and the floored sellers, and sort.SliceStable over a copy
// of the failover order.
func refRank(x *Exchange, site string, typ capability.ResourceType, amount float64, bank *trust.Bank) []Seller {
	var elig []cand
	for i, s := range x.sellers {
		if bank != nil && bank.Held(s.SellerName()) <= 0 {
			continue
		}
		if !(amount > 0 && amount <= s.Inventory(site, typ)) {
			continue
		}
		elig = append(elig, cand{s: s, score: x.score(s.SellerName()), idx: i})
	}
	if x.MinScore > 0 {
		above := elig[:0:0]
		for _, c := range elig {
			if c.score >= x.MinScore {
				above = append(above, c)
			}
		}
		if len(above) > 0 {
			elig = above
		}
	}
	if len(elig) == 0 {
		return nil
	}
	primary := 0
	if len(elig) > 1 {
		var total float64
		for _, c := range elig {
			total += c.score * c.score
		}
		u := x.rng.Float64() * total
		if total > 0 {
			acc := 0.0
			for i, c := range elig {
				acc += c.score * c.score
				if u < acc {
					primary = i
					break
				}
			}
		}
	}
	out := []Seller{elig[primary].s}
	rest := append([]cand(nil), elig[:primary]...)
	rest = append(rest, elig[primary+1:]...)
	sort.SliceStable(rest, func(i, j int) bool {
		if rest[i].score != rest[j].score {
			return rest[i].score > rest[j].score
		}
		return rest[i].idx < rest[j].idx
	})
	for _, c := range rest {
		out = append(out, c.s)
	}
	return out
}

// TestRankMatchesReference: over sellers with tied, distinct and floored
// scores, one without collateral and one without stock, rank picks the
// same primary and the same (score desc, index asc) failover order as
// refRank on a twin exchange drawing from the same seed, and once its
// buffer is warm a ranking allocates only the list it returns.
func TestRankMatchesReference(t *testing.T) {
	scores := trust.NewScoreboard(trust.DefaultScoreDecay)
	bank := trust.NewBank("A")
	x, ref := NewExchange(rand.New(rand.NewSource(5)), scores), NewExchange(rand.New(rand.NewSource(5)), scores)
	for i, bad := range []int{0, 3, 0, 1, 6, 3, 0, 9, 2} {
		s := stubSeller{name: string(rune('a' + i)), inv: 4}
		if i == 7 {
			s.inv = 0
		}
		if i != 2 {
			if err := bank.Deposit(s.name, 1); err != nil {
				t.Fatal(err)
			}
		}
		for range bad {
			if err := scores.ReportOutcome(s.name, false); err != nil {
				t.Fatal(err)
			}
		}
		x.AddSeller(s)
		ref.AddSeller(s)
	}
	names := func(order []Seller) []string {
		out := make([]string, len(order))
		for i, s := range order {
			out[i] = s.SellerName()
		}
		return out
	}
	for _, floor := range []float64{0, 0.3, 0.99} {
		x.MinScore, ref.MinScore = floor, floor
		for i := 0; i < 50; i++ {
			got, want := names(x.rank("A", capability.CPU, 1, bank)), names(refRank(ref, "A", capability.CPU, 1, bank))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("floor %v, ranking %d: rank = %v, reference %v", floor, i, got, want)
			}
		}
	}
	if got := testing.AllocsPerRun(100, func() { x.rank("A", capability.CPU, 1, bank) }); got != 1 {
		t.Errorf("a warm ranking allocates %.1f objects, want 1 (the returned order)", got)
	}
}
