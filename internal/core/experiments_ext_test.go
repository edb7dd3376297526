package core

import (
	"testing"
	"time"
)

func TestAvailabilityMonotone(t *testing.T) {
	rows := E10.Run(9, AvailGrid{Ks: []int{1, 2, 4, 8}, Horizon: 60 * 24 * time.Hour}, 1)
	// §3.2: service availability rises with points of presence;
	// co-allocation availability falls.
	if err := availClaim(rows); err != nil {
		t.Error(err)
	}
	// With 8 PoPs and ~5% per-site downtime, the service should be
	// essentially always reachable.
	if anyUp := rows[3].AnyUp; anyUp < 0.999 {
		t.Errorf("8-PoP availability = %v, want ~1", anyUp)
	}
}

func TestBackfillAblationShape(t *testing.T) {
	// Backfill must actually backfill and must not lengthen mean wait or
	// lower utilization.
	if err := backfillClaim(A1.Run(9, BackfillGrid{Slots: 16, Jobs: 120}, 1)); err != nil {
		t.Error(err)
	}
}

func TestPoolingAblationShape(t *testing.T) {
	// Pooling must beat a static split on asymmetric paths.
	if err := poolingClaim(A2.Run(9, 400e6, 1)); err != nil {
		t.Error(err)
	}
}

func TestTTLAblationShape(t *testing.T) {
	// Staleness grows with the period and stays within it (plus
	// propagation); traffic shrinks.
	if err := refreshClaim(A3.Run(9, RefreshGrid{Periods: []time.Duration{time.Minute, 10 * time.Minute}, Resources: 50}, 1)); err != nil {
		t.Error(err)
	}
}

func TestBackfillDisabledStillCorrect(t *testing.T) {
	// The FCFS path must preserve reservation correctness: a reserved
	// window still excludes queued jobs.
	rows := A1.Run(11, BackfillGrid{Slots: 8, Jobs: 40}, 1)
	if len(rows) != 2 || rows[1].Scheduler != "pure FCFS" || rows[1].Backfilled != 0 {
		t.Fatalf("FCFS row missing or backfilled: %+v", rows)
	}
}

func TestManagedAvailabilityBeatsStatic(t *testing.T) {
	if err := managedClaim(E11.Run(9, 60*24*time.Hour, 1)); err != nil {
		t.Error(err)
	}
}
