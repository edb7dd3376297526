package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func partitionNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := New(eng)
	net.AddSite("A", 0, 0)
	net.AddSite("B", 40, 0)
	net.AddSite("R", 20, 15)
	net.AddHost("a", "A", 1e6)
	net.AddHost("b", "B", 1e6)
	net.AddHost("r", "R", 1e6)
	return eng, net
}

// A partition during a striped (non-pooled) transfer must fail the whole
// flow promptly — static striping has no reassembly protocol, so a lost
// stripe is a lost transfer, never a hang.
func TestPartitionFailsStripedFlow(t *testing.T) {
	eng, net := partitionNet(t)
	var failErr error
	doneCalled := false
	f, err := net.StartFlow("a", "b", 10e6, FlowOpts{Streams: 4}, func(*Flow) { doneCalled = true })
	if err != nil {
		t.Fatal(err)
	}
	f.OnFail = func(_ *Flow, e error) { failErr = e }
	eng.RunUntil(2 * time.Second)
	net.Partition("A", "B", true)
	eng.Run()
	if failErr == nil {
		t.Fatal("flow survived a full partition")
	}
	if !errors.Is(failErr, ErrPartitioned) {
		t.Errorf("fail error = %v", failErr)
	}
	if doneCalled || f.done {
		t.Error("partitioned flow reported done")
	}
}

// A pooled multipath flow only loses the streams whose path crosses the
// cut; the stranded bytes restripe onto a surviving path and the transfer
// completes.
func TestPartitionPartialCutPooledFlowCompletes(t *testing.T) {
	eng, net := partitionNet(t)
	done := false
	f, err := net.StartFlow("a", "b", 4e6, FlowOpts{
		Streams: 2,
		Paths:   [][]string{nil, {"r"}},
		Pooled:  true,
	}, func(*Flow) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.OnFail = func(_ *Flow, e error) { t.Errorf("pooled flow failed: %v", e) }
	eng.RunUntil(time.Second)
	net.Partition("A", "B", true) // severs only the direct-path stream
	eng.Run()
	if !done {
		t.Fatal("pooled flow did not complete over the surviving relay path")
	}
}

// Cutting every path of a pooled flow still fails it.
func TestPartitionFullCutPooledFlowFails(t *testing.T) {
	eng, net := partitionNet(t)
	var failErr error
	f, err := net.StartFlow("a", "b", 10e6, FlowOpts{
		Streams: 2,
		Paths:   [][]string{nil, {"r"}},
		Pooled:  true,
	}, func(*Flow) {})
	if err != nil {
		t.Fatal(err)
	}
	f.OnFail = func(_ *Flow, e error) { failErr = e }
	eng.RunUntil(time.Second)
	net.Partition("A", "B", true)
	net.Partition("R", "B", true) // now the relay path is cut too
	eng.Run()
	if !errors.Is(failErr, ErrPartitioned) {
		t.Fatalf("fully cut pooled flow: err = %v", failErr)
	}
}

// An irrelevant partition must not touch a flow.
func TestPartitionElsewhereLeavesFlowAlone(t *testing.T) {
	eng, net := partitionNet(t)
	done := false
	f, err := net.StartFlow("a", "b", 2e6, FlowOpts{Streams: 2}, func(*Flow) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.OnFail = func(_ *Flow, e error) { t.Errorf("unrelated partition killed flow: %v", e) }
	eng.RunUntil(time.Second)
	net.Partition("A", "R", true)
	eng.Run()
	if !done {
		t.Error("flow did not complete")
	}
}

// New flows across a cut are rejected synchronously; healing the cut
// admits them again.
func TestPartitionHealAdmitsNewFlows(t *testing.T) {
	eng, net := partitionNet(t)
	net.Partition("A", "B", true)
	if _, err := net.StartFlow("a", "b", 1e6, FlowOpts{}, nil); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("flow across cut: err = %v", err)
	}
	net.Partition("A", "B", false)
	done := false
	if _, err := net.StartFlow("a", "b", 1e6, FlowOpts{}, func(*Flow) { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Error("flow after heal did not complete")
	}
}

// ClearLoss / ClearLatency restore the defaults exactly (fault revocation
// must leave no residue).
func TestClearLossAndLatency(t *testing.T) {
	_, net := partitionNet(t)
	base := net.Latency("A", "B")
	net.SetLoss("A", "B", 0.3)
	net.SetLatency("A", "B", 900*time.Millisecond)
	if net.Loss("A", "B") != 0.3 || net.Latency("A", "B") != 900*time.Millisecond {
		t.Fatal("overrides not applied")
	}
	net.ClearLoss("A", "B")
	net.ClearLatency("A", "B")
	if net.Loss("A", "B") != 0 {
		t.Errorf("loss residue %v", net.Loss("A", "B"))
	}
	if net.Latency("A", "B") != base {
		t.Errorf("latency %v != base %v", net.Latency("A", "B"), base)
	}
}
