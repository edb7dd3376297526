package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCallTimeoutEventCancelled is the regression test for the timeout
// leak: a completed Call must cancel its pending timeout event, so the
// heap holds O(in-flight) events, not O(total calls). Before the fix,
// 10k completed calls with 30s timeouts left 10k dead events queued.
func TestCallTimeoutEventCancelled(t *testing.T) {
	eng, n := testNet(t, 1)
	n.Host("b1").Handle("echo", func(_ string, req any) (any, error) { return req, nil })
	const calls = 10000
	completed := 0
	for i := 0; i < calls; i++ {
		n.Call("a1", "b1", "echo", i, 30*time.Second, func(_ any, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
			}
			completed++
		})
		eng.Run() // drain: the call completes long before its timeout
	}
	if completed != calls {
		t.Fatalf("completed %d of %d calls", completed, calls)
	}
	// The queue is drained, so nothing at all should be pending; the bound
	// is deliberately loose to only catch O(total-calls) leaks.
	if p := eng.Pending(); p > 16 {
		t.Errorf("Pending() = %d after %d completed calls, want O(in-flight)", p, calls)
	}
}

// TestCallTimeoutStillFiresOnLoss checks the cancel does not break the
// timeout path itself: a lost request must still surface ErrTimeout.
func TestCallTimeoutStillFiresOnLoss(t *testing.T) {
	eng, n := testNet(t, 1)
	n.SetLoss("A", "B", 0.999999)
	n.Host("b1").Handle("svc", func(string, any) (any, error) { return "ok", nil })
	var err error
	n.Call("a1", "b1", "svc", nil, 200*time.Millisecond, func(_ any, e error) { err = e })
	eng.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if p := eng.Pending(); p != 0 {
		t.Errorf("Pending() = %d after timeout, want 0", p)
	}
}

// TestCallNoHandlerCrashedCaller is the regression test for the
// asymmetric refusal path: a caller that crashes mid-call must not
// receive "connection refused", and the refusal reply must be counted
// like any other response message.
func TestCallNoHandlerCrashedCaller(t *testing.T) {
	eng, n := testNet(t, 1)
	got := false
	n.Call("a1", "b1", "nosuch", nil, 0, func(_ any, err error) {
		got = true
	})
	// Crash the caller while the request (or the refusal) is in flight.
	eng.RunUntil(40 * time.Millisecond)
	n.SetDown("a1", true)
	eng.Run()
	if got {
		t.Fatal("crashed caller received a reply")
	}
	if sent := n.Host("b1").MsgsSent; sent != 1 {
		t.Errorf("refusing host MsgsSent = %d, want 1 (refusal is a control message)", sent)
	}
	if recv := n.Host("a1").MsgsRecv; recv != 0 {
		t.Errorf("crashed caller MsgsRecv = %d, want 0", recv)
	}
}

// TestCallNoHandlerCounted: on the happy (alive-caller) path the refusal
// must be accounted symmetrically with a normal response.
func TestCallNoHandlerCounted(t *testing.T) {
	eng, n := testNet(t, 1)
	var err error
	n.Call("a1", "b1", "nosuch", nil, time.Second, func(_ any, e error) { err = e })
	eng.Run()
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
	if recv := n.Host("a1").MsgsRecv; recv != 1 {
		t.Errorf("caller MsgsRecv = %d, want 1", recv)
	}
}

// TestSendPartitionMidFlight: a cut that lands while a leg is in flight
// drops it, whichever leg it is — a Send, a Call's request, its reply or
// its refusal — and counts one net.drop.partition. The A–B legs fly
// 31 ms; the cut lands at 10 ms (mid-request) or 40 ms (mid-reply).
// Healing the cut lets the same message through again.
func TestSendPartitionMidFlight(t *testing.T) {
	for _, tc := range []struct {
		name     string
		svc      string        // the service the message names; b1 serves only "svc"
		call     bool          // Call with a 1 s timeout, else Send
		cutAt    time.Duration // when the cut lands
		served   bool          // the handler ran before the cut took the message
		recvHost string        // the host the dropped leg was bound for
		healed   error         // done's error once the cut heals
	}{
		{name: "send", svc: "svc", cutAt: 10 * time.Millisecond, recvHost: "b1"},
		{name: "request", svc: "svc", call: true, cutAt: 10 * time.Millisecond, recvHost: "b1"},
		{name: "reply", svc: "svc", call: true, cutAt: 40 * time.Millisecond, served: true, recvHost: "a1"},
		{name: "refused", svc: "nosuch", call: true, cutAt: 40 * time.Millisecond, recvHost: "a1", healed: ErrNoHandler},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, n := testNet(t, 1)
			tr := obs.NewTracer(eng)
			n.SetTracer(tr)
			served := 0
			n.Host("b1").Handle("svc", func(string, any) (any, error) {
				served++
				return "pong", nil
			})
			var errs []error
			send := func() {
				if tc.call {
					n.Call("a1", "b1", tc.svc, "ping", time.Second, func(_ any, err error) { errs = append(errs, err) })
				} else {
					n.Send("a1", "b1", tc.svc, "ping")
				}
			}
			send()
			eng.RunUntil(tc.cutAt)
			n.Partition("A", "B", true)
			eng.Run()
			if got := served == 1; got != tc.served {
				t.Errorf("handler ran %d times across the cut, want served=%v", served, tc.served)
			}
			if tc.call && (len(errs) != 1 || !errors.Is(errs[0], ErrTimeout)) {
				t.Errorf("done got %v, want one ErrTimeout", errs)
			}
			if recv := n.Host(tc.recvHost).MsgsRecv; recv != 0 {
				t.Errorf("%s MsgsRecv = %d, want 0", tc.recvHost, recv)
			}
			if drops := tr.Counter("net.drop.partition").Value(); drops != 1 {
				t.Errorf("net.drop.partition = %d, want 1", drops)
			}

			n.Partition("A", "B", false)
			served, errs = 0, nil
			send()
			eng.Run()
			if tc.svc == "svc" && served != 1 {
				t.Errorf("after heal the handler ran %d times, want 1", served)
			}
			if tc.call && (len(errs) != 1 || !errors.Is(errs[0], tc.healed)) {
				t.Errorf("after heal done got %v, want [%v]", errs, tc.healed)
			}
		})
	}
}
