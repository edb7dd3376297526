package capability

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func simNewEngine() *sim.Engine { return sim.NewEngine(1) }

type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

const hour = time.Hour

func newNM() (*fakeClock, *NodeManager) {
	clk := &fakeClock{}
	nm := NewNodeManager("n1", clk, rand.New(rand.NewSource(1)), map[ResourceType]float64{
		CPU: 2, Network: 1000, Memory: 1 << 30, Disk: 10 << 30,
	})
	return clk, nm
}

func TestMintDedicatedAdmissionControl(t *testing.T) {
	_, nm := newNM()
	c, err := nm.Mint(MintRequest{Type: CPU, Amount: 1.5, Dedicated: true, NotAfter: hour})
	if err != nil {
		t.Fatal(err)
	}
	if c.Node != "n1" || !c.Dedicated {
		t.Errorf("cap = %+v", c)
	}
	if _, err := nm.Mint(MintRequest{Type: CPU, Amount: 1, Dedicated: true, NotAfter: hour}); !errors.Is(err, ErrInsufficient) {
		t.Errorf("overcommit: %v", err)
	}
	if got := nm.Available(CPU); got != 0.5 {
		t.Errorf("Available = %v, want 0.5", got)
	}
}

func TestMintFairShareUnbounded(t *testing.T) {
	_, nm := newNM()
	for i := 0; i < 100; i++ {
		if _, err := nm.Mint(MintRequest{Type: CPU, Amount: 10, NotAfter: hour}); err != nil {
			t.Fatalf("fair-share mint %d: %v", i, err)
		}
	}
	if nm.Available(CPU) != 2 {
		t.Errorf("fair-share mints consumed dedicated capacity: %v", nm.Available(CPU))
	}
}

func TestMintRejectsBadRequests(t *testing.T) {
	_, nm := newNM()
	if _, err := nm.Mint(MintRequest{Type: CPU, Amount: 0, NotAfter: hour}); err == nil {
		t.Error("zero amount accepted")
	}
	if _, err := nm.Mint(MintRequest{Type: CPU, Amount: 1, NotBefore: hour, NotAfter: hour}); err == nil {
		t.Error("empty interval accepted")
	}
	// "amount <= 0" and "available < amount" are both false for NaN: one
	// NaN commit made Available NaN and admitted everything after it.
	for _, amount := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		for _, dedicated := range []bool{true, false} {
			if c, err := nm.Mint(MintRequest{Type: CPU, Amount: amount, Dedicated: dedicated, NotAfter: hour}); err == nil {
				t.Errorf("amount %v (dedicated=%v) minted %+v", amount, dedicated, c)
			}
		}
	}
	if got := nm.Available(CPU); got != 2 {
		t.Errorf("Available = %v after refused mints; want 2", got)
	}
	if _, err := nm.Mint(MintRequest{Type: CPU, Amount: 1000, Dedicated: true, NotAfter: hour}); !errors.Is(err, ErrInsufficient) {
		t.Errorf("1000 CPU on a 2-CPU node: %v", err)
	}
}

func TestPortCapabilityFCFS(t *testing.T) {
	_, nm := newNM()
	c1, err := nm.Mint(MintRequest{Type: Port, PortNum: 80, NotAfter: hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nm.Mint(MintRequest{Type: Port, PortNum: 80, NotAfter: hour}); !errors.Is(err, ErrPortTaken) {
		t.Errorf("double port mint: %v", err)
	}
	nm.Release(c1.ID)
	if _, err := nm.Mint(MintRequest{Type: Port, PortNum: 80, NotAfter: hour}); err != nil {
		t.Errorf("port after release: %v", err)
	}
}

func TestForgedIDRejected(t *testing.T) {
	_, nm := newNM()
	nm.Mint(MintRequest{Type: CPU, Amount: 1, NotAfter: hour})
	var forged ID
	forged[0] = 0xFF
	if _, err := nm.Verify(forged); !errors.Is(err, ErrUnknownCapability) {
		t.Errorf("forged: %v", err)
	}
}

func TestBindOnce(t *testing.T) {
	_, nm := newNM()
	c, _ := nm.Mint(MintRequest{Type: CPU, Amount: 1, Dedicated: true, NotAfter: hour})
	if _, err := nm.Bind(c.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.Bind(c.ID); !errors.Is(err, ErrAlreadyBound) {
		t.Errorf("double bind: %v", err)
	}
	if nm.BoundN != 1 {
		t.Errorf("BoundN = %d", nm.BoundN)
	}
}

func TestExpiredCapability(t *testing.T) {
	clk, nm := newNM()
	c, _ := nm.Mint(MintRequest{Type: CPU, Amount: 1, NotAfter: hour})
	clk.t = hour
	if _, err := nm.Bind(c.ID); !errors.Is(err, ErrExpiredCapability) {
		t.Errorf("expired bind: %v", err)
	}
	// Not yet valid.
	c2, _ := nm.Mint(MintRequest{Type: CPU, Amount: 1, NotBefore: 5 * hour, NotAfter: 6 * hour})
	if _, err := nm.Verify(c2.ID); !errors.Is(err, ErrExpiredCapability) {
		t.Errorf("future claim: %v", err)
	}
}

func TestSplit(t *testing.T) {
	_, nm := newNM()
	c, _ := nm.Mint(MintRequest{Type: Network, Amount: 1000, Dedicated: true, NotAfter: hour})
	part, rest, err := nm.Split(c.ID, 300)
	if err != nil {
		t.Fatal(err)
	}
	if part.Amount != 300 || rest.Amount != 700 {
		t.Errorf("split = %v/%v", part.Amount, rest.Amount)
	}
	// Original consumed.
	if _, err := nm.Verify(c.ID); !errors.Is(err, ErrUnknownCapability) {
		t.Errorf("original after split: %v", err)
	}
	// Committed total unchanged.
	if got := nm.Available(Network); got != 0 {
		t.Errorf("Available(Network) = %v, want 0", got)
	}
	// Both halves bind independently.
	if _, err := nm.Bind(part.ID); err != nil {
		t.Errorf("bind part: %v", err)
	}
	if _, err := nm.Bind(rest.ID); err != nil {
		t.Errorf("bind rest: %v", err)
	}
}

func TestSplitErrors(t *testing.T) {
	_, nm := newNM()
	c, _ := nm.Mint(MintRequest{Type: Network, Amount: 100, NotAfter: hour})
	if _, _, err := nm.Split(c.ID, 100); !errors.Is(err, ErrSplitTooLarge) {
		t.Errorf("full split: %v", err)
	}
	if _, _, err := nm.Split(c.ID, 0); !errors.Is(err, ErrSplitTooLarge) {
		t.Errorf("zero split: %v", err)
	}
	if _, _, err := nm.Split(c.ID, math.NaN()); !errors.Is(err, ErrSplitTooLarge) {
		t.Errorf("NaN split: %v", err)
	}
	p, _ := nm.Mint(MintRequest{Type: Port, PortNum: 80, NotAfter: hour})
	if _, _, err := nm.Split(p.ID, 0.5); !errors.Is(err, ErrNotDivisible) {
		t.Errorf("port split: %v", err)
	}
	nm.Bind(c.ID)
	if _, _, err := nm.Split(c.ID, 50); !errors.Is(err, ErrAlreadyBound) {
		t.Errorf("bound split: %v", err)
	}
}

func TestReleaseReturnsCapacity(t *testing.T) {
	_, nm := newNM()
	c, _ := nm.Mint(MintRequest{Type: CPU, Amount: 2, Dedicated: true, NotAfter: hour})
	if nm.Available(CPU) != 0 {
		t.Fatal("capacity not committed")
	}
	nm.Release(c.ID)
	if nm.Available(CPU) != 2 {
		t.Errorf("Available = %v after release", nm.Available(CPU))
	}
	nm.Release(c.ID) // idempotent
}

func TestRevoke(t *testing.T) {
	_, nm := newNM()
	c, _ := nm.Mint(MintRequest{Type: CPU, Amount: 1, Dedicated: true, NotAfter: hour})
	nm.Revoke(c.ID)
	if _, err := nm.Verify(c.ID); !errors.Is(err, ErrRevokedCapability) {
		t.Errorf("revoked: %v", err)
	}
	if nm.Available(CPU) != 2 {
		t.Errorf("capacity not reclaimed: %v", nm.Available(CPU))
	}
}

func TestExpireSweep(t *testing.T) {
	clk, nm := newNM()
	nm.Mint(MintRequest{Type: CPU, Amount: 1, Dedicated: true, NotAfter: hour})
	nm.Mint(MintRequest{Type: CPU, Amount: 1, Dedicated: true, NotAfter: 3 * hour})
	clk.t = 2 * hour
	if n := nm.ExpireSweep(); n != 1 {
		t.Errorf("swept %d, want 1", n)
	}
	if nm.Available(CPU) != 1 {
		t.Errorf("Available = %v, want 1", nm.Available(CPU))
	}
	if nm.Outstanding() != 1 {
		t.Errorf("Outstanding = %d, want 1", nm.Outstanding())
	}
}

func TestIDString(t *testing.T) {
	var id ID
	id[0], id[1] = 0xAB, 0xCD
	if got := id.String(); got != "abcd00000000" {
		t.Errorf("String = %q", got)
	}
}

func TestResourceTypeString(t *testing.T) {
	if CPU.String() != "cpu" || Port.String() != "port" {
		t.Error("type names wrong")
	}
	if ResourceType(99).String() != "ResourceType(99)" {
		t.Error("unknown type name wrong")
	}
}

// Property: any sequence of valid splits preserves the total committed
// amount, and all fragment IDs are distinct.
func TestSplitConservesProperty(t *testing.T) {
	f := func(cuts []uint8) bool {
		_, nm := newNM()
		c, err := nm.Mint(MintRequest{Type: Network, Amount: 1000, Dedicated: true, NotAfter: hour})
		if err != nil {
			return false
		}
		frags := map[ID]float64{c.ID: c.Amount}
		ids := map[ID]bool{c.ID: true}
		for _, cut := range cuts {
			// Pick the largest fragment deterministically.
			var target ID
			var max float64
			for id, amt := range frags {
				if amt > max || (amt == max && string(id[:]) < string(target[:])) {
					max, target = amt, id
				}
			}
			if max < 2 {
				break
			}
			frac := (float64(cut%98) + 1) / 100 // 1%..98%
			part, rest, err := nm.Split(target, max*frac)
			if err != nil {
				return false
			}
			delete(frags, target)
			frags[part.ID], frags[rest.ID] = part.Amount, rest.Amount
			if ids[part.ID] || ids[rest.ID] {
				return false // ID collision
			}
			ids[part.ID], ids[rest.ID] = true, true
		}
		total := 0.0
		for _, amt := range frags {
			total += amt
		}
		return total > 999.999 && total < 1000.001 && nm.Available(Network) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: mint/release pairs always restore available capacity.
func TestMintReleaseRoundTripProperty(t *testing.T) {
	f := func(amounts []uint16) bool {
		_, nm := newNM()
		before := nm.Available(Disk)
		var ids []ID
		for _, a := range amounts {
			amt := float64(a%1000) + 1
			c, err := nm.Mint(MintRequest{Type: Disk, Amount: amt, Dedicated: true, NotAfter: hour})
			if errors.Is(err, ErrInsufficient) {
				continue
			}
			if err != nil {
				return false
			}
			ids = append(ids, c.ID)
		}
		for _, id := range ids {
			nm.Release(id)
		}
		return nm.Available(Disk) == before && nm.Outstanding() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAttachSweeper(t *testing.T) {
	eng := simNewEngine()
	nm := NewNodeManager("n1", eng, rand.New(rand.NewSource(1)), map[ResourceType]float64{CPU: 2})
	nm.Mint(MintRequest{Type: CPU, Amount: 2, Dedicated: true, NotAfter: 30 * time.Minute})
	tk := nm.AttachSweeper(eng, 10*time.Minute)
	eng.RunUntil(25 * time.Minute)
	if nm.Available(CPU) != 0 {
		t.Fatal("swept too early")
	}
	eng.RunUntil(41 * time.Minute)
	if nm.Available(CPU) != 2 {
		t.Errorf("Available = %v after expiry sweep", nm.Available(CPU))
	}
	tk.Stop()
}
