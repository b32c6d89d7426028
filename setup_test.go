//go:build stress

package ftc

import (
	"testing"
	"time"
)

// TestFlowSetupNeedsNoRepair runs nat-mt's shape in-process: one MazuNAT
// replicated at F=1, two workers per replica, 2,048 new flows offered in a
// closed loop (at most 512 packets in flight, 32 a chunk). Every flow setup
// writes MazuNAT's two shared counters, so the two head workers' coalesced
// runs reach the tail's two workers in either order. The fabric loses
// nothing, so a run that arrives ahead of an earlier log must wait for it
// in the pending set, not go on in part and leave its partition to repair:
// the tail may repair a handful of logs, never hundreds, and none may time
// out.
//
// The maintenance tick runs every 250 ms, not every 2 ms: under -race a
// run takes 5–45 ms from the head to the tail in this closed loop, and a
// 2 ms tick repairs logs that are still queued. A setup that needs a
// repair stalls the loop until the tick, and shows in RepairedLogs.
//
// Built with -tags stress: make stress runs it, the plain suite does not.
func TestFlowSetupNeedsNoRepair(t *testing.T) {
	const (
		flows  = 2048
		window = 512
		chunk  = 32
	)
	fabric := NewFabric(FabricConfig{})
	defer fabric.Stop()
	sink := NewSink(fabric, "sink")
	defer sink.Stop()
	mbs := []Middlebox{NewMazuNAT(Addr4(203, 0, 113, 1), 10000, 40000, Addr4(10, 0, 0, 0), 8)}
	chain := NewChain(ChainConfig{F: 1, NumMB: 1, Workers: 2, QueueCap: 4096, PropagateEvery: 200 * time.Microsecond, RepairEvery: 250 * time.Millisecond},
		fabric, "ftc", mbs, sink.ID())
	chain.Start()
	defer chain.Stop()
	gen, err := NewGenerator(fabric, "gen", chain.IngressID(), TrafficSpec{
		Flows: flows, PacketSize: 256, SrcBase: Addr4(10, 7, 0, 1), DstPort: 4242,
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	wait := func(limit uint64) {
		for gen.Sent()-sink.Received() >= limit {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d flow setups delivered", sink.Received(), gen.Sent())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for sent := 0; sent < flows; {
		wait(window - chunk + 1)
		n, err := gen.SendChunk(sent, min(chunk, flows-sent))
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	wait(1)

	var repaired, timeouts uint64
	for i := 0; i < chain.Len(); i++ {
		s := chain.Replica(i).Stats()
		repaired += s.RepairedLogs.Load()
		timeouts += s.ApplyTimeouts.Load()
	}
	if repaired > 20 || timeouts != 0 {
		t.Fatalf("%d flow setups: %d logs repaired, %d apply timeouts; want at most 20 and 0", flows, repaired, timeouts)
	}
}
