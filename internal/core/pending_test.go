package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// ftcFrame builds packet seq of flow g as a bridgedRig's node 1 receives it
// from node 0: FTC option in, msg as the trailer.
func ftcFrame(tb testing.TB, g, seq int, msg *Message) []byte {
	tb.Helper()
	pkt, err := wire.Parse(flowFrame(tb, g, seq, rigFrame))
	if err != nil {
		tb.Fatal(err)
	}
	if err := pkt.InsertFTCOption(); err != nil {
		tb.Fatal(err)
	}
	if err := pkt.AppendTrailer(msg); err != nil {
		tb.Fatal(err)
	}
	return pkt.Buf
}

// headLogs runs n writes of one key at r's head and returns their logs, in
// sequence order: log i carries sequence i of the key's partition.
func headLogs(tb testing.TB, r *Replica, n int) []Log {
	tb.Helper()
	logs := make([]Log, n)
	for i := range logs {
		l, err := r.Head().Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{byte(i)}) })
		if err != nil {
			tb.Fatal(err)
		}
		logs[i] = l
	}
	return logs
}

// otherFlow returns a flow number whose frames land in another pending-set
// partition than flow g's.
func otherFlow(tb testing.TB, g int) int {
	part := func(g int) uint64 { return wire.RSSHash(ftcFrame(tb, g, 0, &Message{})) % flowParts }
	h := g + 1
	for part(h) == part(g) {
		h++
	}
	return h
}

// egressSeqs takes what left the rig's chain and returns the packets'
// sequence numbers, in the order they left.
func egressSeqs(tb testing.TB, rig *bridgedRig) []int {
	var seqs []int
	for _, fr := range rig.take(laneEgress) {
		_, seq := flowOf(wirePayload(tb, fr))
		seqs = append(seqs, seq)
	}
	return seqs
}

// TestPendingKeepsFlowOrder gives ring node 1's follower a gap that only
// repair fills, on the first frame of flow A. Flow A's later frames wait
// behind it; flow B, in another partition, leaves while A waits. Once the
// predecessor serves repairs, the maintenance tick repairs the gap and A
// leaves in injection order, each frame once, and the ring converges.
// (Mutation-checked: parking only frames with a Blocked log lets A's later
// frames overtake the first.)
func TestPendingKeepsFlowOrder(t *testing.T) {
	rig := newBridgedRig(t, Config{}, newGenMB(16))
	rig.r[1].Start()
	defer rig.r[1].Stop()
	logs := headLogs(t, rig.r[0], 2)
	b := otherFlow(t, 0)
	rig.inject(t, 1, [][]byte{
		ftcFrame(t, 0, 0, &Message{Logs: logs[1:]}), // waits for sequence 0
		ftcFrame(t, b, 10, &Message{}),
		ftcFrame(t, 0, 1, &Message{}),
		ftcFrame(t, b, 11, &Message{}),
		ftcFrame(t, 0, 2, &Message{}),
		ftcFrame(t, b, 12, &Message{}),
	})
	if got := egressSeqs(t, rig); !slices.Equal(got, []int{10, 11, 12}) {
		t.Fatalf("while flow A waits, %v left the chain; want flow B's 10 11 12", got)
	}
	// The repair source comes up: node 1 calls node 0 by its proxy's name.
	rig.fab.Node("p0").RegisterRPC(rpcRepair, rig.r[0].handleRepair)
	var got []int
	for deadline := time.Now().Add(5 * time.Second); len(got) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after the repair source came up, %v of flow A left", got)
		}
		got = append(got, egressSeqs(t, rig)...)
	}
	rig.r[1].Stop() // nothing leaves after this: a duplicate would be in by now
	if got = append(got, egressSeqs(t, rig)...); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("flow A left as %v, want 0 1 2", got)
	}
	if s := rig.r[1].Stats(); s.RepairedLogs.Load() == 0 || s.ApplyTimeouts.Load() != 0 {
		t.Fatalf("%d logs repaired, %d timed out; want some and 0", s.RepairedLogs.Load(), s.ApplyTimeouts.Load())
	}
	if err := rig.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestPendingLogBehindItsWaiter sends frame A carrying sequence 1 and,
// behind it in the same flow and burst, frame B carrying sequence 0. B's log
// applies on arrival although B itself waits behind A, so both finish
// without a repair, A first. Then the same with both logs blocked on
// arrival — A carries sequence 4, B sequence 3 — until a frame of another
// flow brings sequence 2: B's log, behind A, must still be retried.
// (Mutation-checked: retrying only the front frame's logs leaves the second
// A and B parked.)
func TestPendingLogBehindItsWaiter(t *testing.T) {
	rig := newBridgedRig(t, Config{}, newGenMB(16))
	openIngest(rig.r[1])
	logs := headLogs(t, rig.r[0], 5)
	rig.inject(t, 1, [][]byte{
		ftcFrame(t, 0, 0, &Message{Logs: logs[1:2]}),
		ftcFrame(t, 0, 1, &Message{Logs: logs[0:1]}),
	})
	if got := egressSeqs(t, rig); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("%v left the chain, want 0 1", got)
	}
	rig.inject(t, 1, [][]byte{
		ftcFrame(t, 0, 2, &Message{Logs: logs[4:5]}),
		ftcFrame(t, 0, 3, &Message{Logs: logs[3:4]}),
	})
	rig.inject(t, 1, [][]byte{ftcFrame(t, otherFlow(t, 0), 4, &Message{Logs: logs[2:3]})})
	if got := egressSeqs(t, rig); !slices.Equal(got, []int{4, 2, 3}) {
		t.Fatalf("%v left the chain, want 4 2 3", got)
	}
	if s := rig.r[1].Stats(); s.Repairs.Load() != 0 || s.Pending.Load() != 0 {
		t.Fatalf("%d repairs, %d frames parked; want 0 and 0", s.Repairs.Load(), s.Pending.Load())
	}
	if err := rig.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestPendingHoldsPartialRun sends flow A's frame with a coalesced run of
// ring node 0's head that is in order on partition p and ahead on
// partition q. The tail installs p and holds A until q's earlier log comes,
// while a frame of flow B leaves; the earlier log arrives on flow C's frame,
// and A's run completes in that bracket and A leaves after C, with no
// repair. (Mutation-checked: taking Partial for Applied lets A leave at
// once, without the run's write to q.)
func TestPendingHoldsPartialRun(t *testing.T) {
	rig := newBridgedRig(t, Config{}, newGenMB(16))
	openIngest(rig.r[1])
	h := rig.r[0].Head()
	kp, kq := "", ""
	for i := 0; kp == "" || kq == "" || kp == kq; i++ {
		k := fmt.Sprintf("k%d", i)
		switch {
		case kp == "":
			kp = k
		case h.Store().PartitionOf(k) != h.Store().PartitionOf(kp):
			kq = k
		}
	}
	put := func(k, v string) Log {
		l, err := h.Transaction(func(tx state.Txn) error { return tx.Put(k, []byte(v)) })
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	earlier := put(kq, "q0")
	var c coalescer
	for _, l := range []Log{put(kp, "p0"), put(kq, "q1")} {
		if !c.absorb(&l) {
			t.Fatal("the run's second write did not extend it")
		}
	}
	run := c.finalize()
	a, b := 0, otherFlow(t, 0)
	cf := otherFlow(t, b)
	for partOf(ftcFrame(t, cf, 0, &Message{})) == partOf(ftcFrame(t, a, 0, &Message{})) {
		cf = otherFlow(t, cf)
	}
	rig.inject(t, 1, [][]byte{
		ftcFrame(t, a, 0, &Message{Logs: []Log{run}}),
		ftcFrame(t, b, 10, &Message{}),
	})
	if got := egressSeqs(t, rig); !slices.Equal(got, []int{10}) {
		t.Fatalf("%v left the chain, want flow B's 10 while A's run waits on q", got)
	}
	rig.inject(t, 1, [][]byte{ftcFrame(t, cf, 20, &Message{Logs: []Log{earlier}})})
	if got := egressSeqs(t, rig); !slices.Equal(got, []int{20, 0}) {
		t.Fatalf("%v left the chain, want flow C's 20, then A's 0", got)
	}
	if s := rig.r[1].Stats(); s.Repairs.Load() != 0 || s.Pending.Load() != 0 {
		t.Fatalf("%d repairs, %d frames parked; want 0 and 0", s.Repairs.Load(), s.Pending.Load())
	}
	if err := rig.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestPendingResumesOnDependency parks a frame on a missing log and then,
// in a later burst, delivers that log on a frame of another flow: the apply
// that advances MAX resumes the parked frame in the same bracket, after the
// frame that carried the log.
func TestPendingResumesOnDependency(t *testing.T) {
	rig := newBridgedRig(t, Config{}, newGenMB(16))
	openIngest(rig.r[1])
	logs := headLogs(t, rig.r[0], 2)
	rig.inject(t, 1, [][]byte{ftcFrame(t, 0, 0, &Message{Logs: logs[1:]})})
	if got := egressSeqs(t, rig); len(got) != 0 || rig.r[1].Stats().Pending.Load() != 1 {
		t.Fatalf("%v left the chain and %d frames are parked, want none and 1", got, rig.r[1].Stats().Pending.Load())
	}
	rig.inject(t, 1, [][]byte{ftcFrame(t, otherFlow(t, 0), 1, &Message{Logs: logs[:1]})})
	if got := egressSeqs(t, rig); !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("%v left the chain, want 1 0", got)
	}
	if s := rig.r[1].Stats(); s.Repairs.Load() != 0 || s.Pending.Load() != 0 {
		t.Fatalf("%d repairs, %d frames parked; want 0 and 0", s.Repairs.Load(), s.Pending.Load())
	}
}

// TestPendingDeadline parks a frame on a log nothing can deliver: after
// RepairDeadline the maintenance tick lets it go on with the log unapplied
// and counted, and the egress buffer holds it, uncommitted.
func TestPendingDeadline(t *testing.T) {
	rig := newBridgedRig(t, Config{RepairDeadline: 20 * time.Millisecond}, newGenMB(16))
	rig.r[1].Start()
	defer rig.r[1].Stop()
	logs := headLogs(t, rig.r[0], 2)
	rig.inject(t, 1, [][]byte{ftcFrame(t, 0, 0, &Message{Logs: logs[1:]})})
	for deadline := time.Now().Add(5 * time.Second); rig.r[1].Stats().Pending.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the frame never left the pending set")
		}
	}
	if got := rig.r[1].Stats().ApplyTimeouts.Load(); got != 1 || rig.r[1].HeldPackets() != 1 {
		t.Fatalf("%d logs timed out, %d packets held; want 1 and 1", got, rig.r[1].HeldPackets())
	}
}

// TestPendingDoesNotHoldFetchGate parks a frame at ring node 1 on a log only
// a recovery could deliver, with RepairEvery at a second: a fetch of node
// 1's own head state must not wait for it. (The seed-17 chaos shape: a
// worker parked inside its burst held the head's fetch gate, and the
// recovery that would have filled its gap could not fetch.)
func TestPendingDoesNotHoldFetchGate(t *testing.T) {
	rig := newBridgedRig(t, Config{RepairEvery: time.Second}, newGenMB(16), newGenMB(16))
	openIngest(rig.r[1])
	logs := headLogs(t, rig.r[0], 2)
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		rig.inject(t, 1, [][]byte{ftcFrame(t, 0, 0, &Message{Logs: logs[1:]})})
	}()
	for rig.r[1].Stats().RxFrames.Load() == 0 {
		runtime.Gosched()
	}
	begin := time.Now()
	if _, err := rig.r[1].handleFetch(rig.sim[0].ID(), encodeFetchReq(1)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > 10*time.Millisecond {
		t.Fatalf("fetch of the head's state took %v with a frame waiting on a log", took)
	}
	<-injected
	if got := rig.r[1].Stats().Pending.Load(); got != 1 {
		t.Fatalf("%d frames parked, want 1", got)
	}
}
