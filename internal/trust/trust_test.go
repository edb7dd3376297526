package trust

import (
	"errors"
	"math"
	"testing"
)

func TestBankDepositSlashConservation(t *testing.T) {
	b := NewBank("siteA")
	if err := b.Deposit("hb0", 10); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	if err := b.Deposit("byz0", 10); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	took, err := b.Slash("byz0", 4, "replayed ticket")
	if err != nil || took != 4 {
		t.Fatalf("slash = %v, %v; want 4, nil", took, err)
	}
	// Slashing past the remaining collateral drains but never goes
	// negative.
	took, err = b.Slash("byz0", 100, "oversell conflict")
	if err != nil || took != 6 {
		t.Fatalf("overdraw slash = %v, %v; want 6, nil", took, err)
	}
	if h := b.Held("byz0"); h != 0 {
		t.Fatalf("held after drain = %v; want 0", h)
	}
	// A drained account keeps recording offenses but yields nothing.
	took, err = b.Slash("byz0", 1, "replayed ticket")
	if err != nil || took != 0 {
		t.Fatalf("drained slash = %v, %v; want 0, nil", took, err)
	}
	if got := len(b.Events()); got != 3 {
		t.Fatalf("events = %d; want 3", got)
	}
	if err := b.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if got, want := b.TotalHeld()+b.TotalSlashed(), 20.0; got != want {
		t.Fatalf("held+slashed = %v; want %v", got, want)
	}
}

func TestBankErrors(t *testing.T) {
	b := NewBank("siteA")
	if _, err := b.Slash("ghost", 1, "x"); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("slash unknown = %v; want ErrNoAccount", err)
	}
	if err := b.Deposit("hb0", 0); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("zero deposit = %v; want ErrBadAmount", err)
	}
	if err := b.Deposit("hb0", -3); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("negative deposit = %v; want ErrBadAmount", err)
	}
	if err := b.Deposit("", 1); !errors.Is(err, ErrNoBroker) {
		t.Fatalf("empty name deposit = %v; want ErrNoBroker", err)
	}
	if err := b.Deposit("hb0", 5); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	if _, err := b.Slash("hb0", -1, "x"); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("negative slash = %v; want ErrBadAmount", err)
	}
}

func TestScoreboardConvergence(t *testing.T) {
	s := NewScoreboard(0.8)
	if got := s.Score("unseen"); got != 0.5 {
		t.Fatalf("prior = %v; want 0.5", got)
	}
	for i := 0; i < 50; i++ {
		if err := s.ReportOutcome("honest", true); err != nil {
			t.Fatalf("report: %v", err)
		}
		if err := s.ReportOutcome("byz", false); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	if got := s.Score("honest"); got < 0.99 {
		t.Fatalf("honest score = %v; want ≥ 0.99", got)
	}
	if got := s.Score("byz"); got > 0.01 {
		t.Fatalf("byz score = %v; want ≤ 0.01", got)
	}
	if err := s.CheckBounds(); err != nil {
		t.Fatalf("bounds: %v", err)
	}
	if err := s.ReportOutcome("", true); !errors.Is(err, ErrNoBroker) {
		t.Fatalf("empty name report = %v; want ErrNoBroker", err)
	}
	rows := s.Snapshot()
	if len(rows) != 2 || rows[0].Broker != "byz" || rows[1].Broker != "honest" {
		t.Fatalf("snapshot order = %+v; want [byz honest]", rows)
	}
	if rows[0].Reports != 50 {
		t.Fatalf("reports = %d; want 50", rows[0].Reports)
	}
}

func TestScoreboardRecovers(t *testing.T) {
	// A broker that failed during an outage earns its way back: the EWMA
	// forgets geometrically.
	s := NewScoreboard(0.8)
	for i := 0; i < 20; i++ {
		_ = s.ReportOutcome("b", false)
	}
	low := s.Score("b")
	for i := 0; i < 20; i++ {
		_ = s.ReportOutcome("b", true)
	}
	if got := s.Score("b"); got <= low || got < 0.95 {
		t.Fatalf("recovered score = %v (from %v); want ≥ 0.95", got, low)
	}
}

func TestScoreboardDeterministicBytes(t *testing.T) {
	// Two scoreboards fed the same report sequence render identically —
	// the property the 20-seed sweep identity test leans on.
	run := func() []BrokerScore {
		s := NewScoreboard(0.7)
		seq := []struct {
			n  string
			ok bool
		}{{"b2", true}, {"b1", false}, {"b2", true}, {"b3", false}, {"b1", true}}
		for _, r := range seq {
			_ = s.ReportOutcome(r.n, r.ok)
		}
		return s.Snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("len %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			t.Fatalf("row %d: %+v != %+v", i, a[i], b[i])
		}
	}
}
