package core

import (
	"testing"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// TestBufferTransfersLeaveAsOneBurst drives one burst through the last ring
// node and watches the link back to ring node 0 through a delivery hook,
// which sees exactly what each send put on the link. k data packets each
// carry a commit the buffer must transfer, and the burst ends on a frame
// that never reaches the transaction stage, so the head's coalesced run is
// still open at the flush and flushRun adds its carrier late. All k+1
// transfer frames must cross in a single burst, in order, and be counted as
// replication bytes once.
func TestBufferTransfersLeaveAsOneBurst(t *testing.T) {
	const k = 5
	// NumMB=2, F=1: a two-node ring whose node 1 is head of middlebox 1 (its
	// group wraps to node 0), follower and tail of middlebox 0, and the buffer.
	cfg := Config{NumMB: 2, F: 1}
	fab := netsim.New(netsim.Config{})
	t.Cleanup(fab.Stop)
	var bursts [][][]byte // the hook runs inside flushBurst, on this goroutine
	fab.AddNode("r0", netsim.NodeConfig{Deliver: func(first []byte, rest [][]byte) {
		burst := [][]byte{append([]byte(nil), first...)}
		for _, fr := range rest {
			burst = append(burst, append([]byte(nil), fr...))
		}
		bursts = append(bursts, burst)
	}})
	gen := fab.AddNode("gen", netsim.NodeConfig{})
	n1 := fab.AddNode("r1", netsim.NodeConfig{QueueCap: 64})
	last := NewReplica(cfg, ReplicaSpec{Index: 1, Sim: n1, Fabric: fab,
		RingIDs: []netsim.NodeID{"r0", "r1"}, MB: newGenMB(16)})
	w := last.newQueueWorker()

	frames := make([][]byte, 0, k+1)
	for i := 0; i < k; i++ {
		pkt, err := wire.Parse(udpFrame(t, rigFrame, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := pkt.InsertFTCOption(); err != nil {
			t.Fatal(err)
		}
		// Middlebox 1's tail is node 0, so node 1 keeps this commit on the
		// message and the buffer transfers it.
		msg := &Message{Commits: []Commit{{MB: 1, Vec: SparseVec{{Part: 0, Seq: uint64(i + 1)}}}}}
		if err := pkt.AppendTrailer(msg); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, pkt.Buf)
	}
	frames = append(frames, []byte("not a packet"))
	if err := gen.SendBurst("r1", frames); err != nil {
		t.Fatal(err)
	}
	n := n1.RecvBurst(0, w.in)
	if n != k+1 {
		t.Fatalf("last node received %d frames of %d", n, k+1)
	}
	wireBefore := last.Stats().WireBytesOut.Load()
	piggyBefore := last.Stats().PiggybackBytesOut.Load()
	last.handleBurst(w, n)

	if len(bursts) != 1 || len(bursts[0]) != k+1 {
		sizes := make([]int, len(bursts))
		for i, b := range bursts {
			sizes[i] = len(b)
		}
		t.Fatalf("link to ring node 0 saw bursts of %v frames, want one burst of %d", sizes, k+1)
	}
	bytes := 0
	for i, fr := range bursts[0] {
		bytes += len(fr)
		pkt, err := wire.Parse(fr)
		if err != nil {
			t.Fatalf("transfer %d unparseable: %v", i, err)
		}
		m, err := DecodeMessage(pkt.Trailer())
		if err != nil || m.Flags&FlagBufferTransfer == 0 {
			t.Fatalf("transfer %d: err %v, flags %#x", i, err, m.Flags)
		}
		if i < k {
			if len(m.Commits) == 0 || m.Commits[0].MB != 1 || m.Commits[0].Vec.Get(0) != uint64(i+1) {
				t.Fatalf("transfer %d carries commits %v, want packet %d's first", i, m.Commits, i)
			}
			continue
		}
		// flushRun's carrier: the run of all k transactions, in substance.
		if len(m.Logs) != 1 || m.Logs[0].MB != 1 || m.Logs[0].Elided() || len(m.Logs[0].Updates) == 0 {
			t.Fatalf("last transfer carries logs %v, want the head's coalesced run", m.Logs)
		}
	}
	if got := last.Stats().WireBytesOut.Load() - wireBefore; got != uint64(bytes) {
		t.Fatalf("WireBytesOut grew by %d, the burst was %d bytes", got, bytes)
	}
	if got := last.Stats().PiggybackBytesOut.Load() - piggyBefore; got != uint64(bytes) {
		t.Fatalf("PiggybackBytesOut grew by %d, the burst was %d bytes", got, bytes)
	}
	if len(w.xferOut) != 0 {
		t.Fatal("flush left transfer frames queued on the worker")
	}
}
