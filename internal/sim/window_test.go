package sim

import (
	"testing"
	"time"
)

func TestWindowAppliesAndRevokes(t *testing.T) {
	eng := NewEngine(1)
	var log []string
	w := eng.NewWindow(10*time.Second, 5*time.Second,
		func() { log = append(log, "apply@"+eng.Now().String()) },
		func() { log = append(log, "revoke@"+eng.Now().String()) })
	if w.applied && !w.revoked {
		t.Error("active before apply")
	}
	eng.RunUntil(12 * time.Second)
	if !(w.applied && !w.revoked) {
		t.Error("not active inside window")
	}
	eng.RunUntil(20 * time.Second)
	if w.applied && !w.revoked {
		t.Error("active after revoke")
	}
	if len(log) != 2 || log[0] != "apply@10s" || log[1] != "revoke@15s" {
		t.Errorf("log = %v", log)
	}
}

func TestWindowEarlyRevoke(t *testing.T) {
	eng := NewEngine(1)
	applied, revoked := 0, 0
	w := eng.NewWindow(10*time.Second, time.Hour,
		func() { applied++ },
		func() { revoked++ })
	eng.RunUntil(20 * time.Second)
	w.Revoke() // force-heal long before the scheduled revocation
	if applied != 1 || revoked != 1 {
		t.Fatalf("applied=%d revoked=%d", applied, revoked)
	}
	w.Revoke() // idempotent
	eng.Run()  // the cancelled scheduled revocation must not fire
	if revoked != 1 {
		t.Errorf("revoke ran %d times", revoked)
	}
}

func TestWindowRevokeBeforeApplyCancels(t *testing.T) {
	eng := NewEngine(1)
	applied, revoked := 0, 0
	w := eng.NewWindow(10*time.Second, time.Second,
		func() { applied++ },
		func() { revoked++ })
	w.Revoke()
	eng.Run()
	if applied != 0 || revoked != 0 {
		t.Errorf("cancelled window ran: applied=%d revoked=%d", applied, revoked)
	}
	if w.applied && !w.revoked {
		t.Error("cancelled window active")
	}
}

func TestWindowZeroDuration(t *testing.T) {
	eng := NewEngine(1)
	var order []string
	eng.NewWindow(time.Second, 0,
		func() { order = append(order, "apply") },
		func() { order = append(order, "revoke") })
	eng.Run()
	if len(order) != 2 || order[0] != "apply" || order[1] != "revoke" {
		t.Errorf("order = %v", order)
	}
}

func TestWindowPanicsOnBadArgs(t *testing.T) {
	eng := NewEngine(1)
	for name, fn := range map[string]func(){
		"nil apply":    func() { eng.NewWindow(0, time.Second, nil, func() {}) },
		"nil revoke":   func() { eng.NewWindow(0, time.Second, func() {}, nil) },
		"negative dur": func() { eng.NewWindow(0, -time.Second, func() {}, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
