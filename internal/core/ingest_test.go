package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// The links of a bridgedRig: two lanes from ring node 0 to node 1 (two
// receive sockets at node 1), node 1 back to node 0, and node 1 to the sink.
const (
	laneFwd0 = iota
	laneFwd1
	laneXfer
	laneEgress
	numLanes
)

// bridgedRig is a two-node ring joined the way socket bridges join it, in
// one fabric: each replica's next hop is a hook node standing in for the
// peer's proxy, which copies what crosses the link (as txBatch.pack does),
// and a frame reaches a replica only through Fabric.Inject, from a buffer
// the injector overwrites the moment Inject returns (as the receive slots
// are by the next read). Ring node 0 is forwarder and head of middlebox 0;
// node 1 is the buffer, and head of middlebox 1 when the chain has two.
type bridgedRig struct {
	fab   *netsim.Fabric
	wan   *netsim.Node // in-fabric sender: the way onto the queue path
	r     [2]*Replica
	sim   [2]*netsim.Node
	chain *Chain // the two replicas, for the audits

	// fwdLanes is how many lanes the link from node 0 to node 1 uses: one
	// where a single goroutine pumps the ring, two where each lane has its
	// receive goroutine. Set before traffic.
	fwdLanes int

	mu    sync.Mutex
	lanes [numLanes][][]byte // copies of what crossed each link, oldest first
	bell  [numLanes]chan struct{}
}

var rigRing = []netsim.NodeID{"r0", "r1"}

func newBridgedRig(tb testing.TB, cfg Config, mbs ...Middlebox) *bridgedRig {
	tb.Helper()
	cfg.NumMB, cfg.F = len(mbs), 1
	if cfg.QueueCap == 0 {
		// The lanes are unbounded, so a lane can run far ahead of the other
		// one; queues and pending sets get room for that skew.
		cfg.QueueCap = 4096
	}
	rig := &bridgedRig{fab: netsim.New(netsim.Config{}), fwdLanes: 1}
	tb.Cleanup(rig.fab.Stop)
	for i := range rig.bell {
		rig.bell[i] = make(chan struct{}, 1)
	}
	capture := func(lane func(frame []byte) int) func([]byte, [][]byte) {
		return func(first []byte, rest [][]byte) {
			rig.mu.Lock()
			for _, fr := range append([][]byte{first}, rest...) {
				l := lane(fr)
				rig.lanes[l] = append(rig.lanes[l], append([]byte(nil), fr...))
				select {
				case rig.bell[l] <- struct{}{}:
				default:
				}
			}
			rig.mu.Unlock()
		}
	}
	// One flow always takes one lane, as one 4-tuple takes one socket: the
	// lane is picked from the source address, which no hop rewrites.
	srcLane := func(fr []byte) int { return laneFwd0 + int(fr[wire.EthernetHeaderLen+14])%rig.fwdLanes }
	rig.fab.AddNode("p1", netsim.NodeConfig{Deliver: capture(srcLane)})
	rig.fab.AddNode("p0", netsim.NodeConfig{Deliver: capture(func([]byte) int { return laneXfer })})
	rig.fab.AddNode("sink", netsim.NodeConfig{Deliver: capture(func([]byte) int { return laneEgress })})
	rig.wan = rig.fab.AddNode("wan", netsim.NodeConfig{})
	for i := range rig.r {
		rig.sim[i] = rig.fab.AddNode(rigRing[i], netsim.NodeConfig{QueueCap: cfg.QueueCap})
		spec := ReplicaSpec{Index: i, Sim: rig.sim[i], Fabric: rig.fab}
		if i < len(mbs) {
			spec.MB = mbs[i]
		}
		// Each replica knows its peer by the proxy's name.
		if i == 0 {
			spec.RingIDs = []netsim.NodeID{"r0", "p1"}
		} else {
			spec.RingIDs, spec.Egress = []netsim.NodeID{"p0", "r1"}, "sink"
		}
		rig.r[i] = NewReplica(cfg, spec)
	}
	rig.chain = &Chain{cfg: cfg.WithDefaults(), ring: cfg.Ring(), replicas: rig.r[:]}
	return rig
}

// openIngest does for ingest what Start does, without the run loops and the
// timers, so a test goroutine is the only thing driving the replica.
func openIngest(r *Replica) {
	r.ingMu.Lock()
	r.started = true
	r.ingMu.Unlock()
}

// take removes and returns what is waiting on a lane.
func (rig *bridgedRig) take(lane int) [][]byte {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	out := rig.lanes[lane]
	rig.lanes[lane] = nil
	return out
}

// inject hands frames to ring node i as a receive goroutine does, then
// overwrites them: whatever the replica still needs, it must have copied.
func (rig *bridgedRig) inject(tb testing.TB, i int, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	if err := rig.fab.Inject("wan", rigRing[i], frames); err != nil {
		tb.Errorf("inject into %s: %v", rigRing[i], err)
	}
	for _, fr := range frames {
		for j := range fr {
			fr[j] = 0xFF
		}
	}
}

// viaQueue is inject's twin on the queue path: an in-fabric sender puts the
// frames in ring node i's queue and w drains them in bursts of len(w.in),
// the chunks ingest cuts.
func (rig *bridgedRig) viaQueue(tb testing.TB, i int, w *worker, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	if err := rig.wan.SendBurst(rigRing[i], frames); err != nil {
		tb.Fatal(err)
	}
	for rig.sim[i].QueueLen(0) > 0 {
		rig.r[i].handleBurst(w, rig.sim[i].RecvBurst(0, w.in))
	}
}

// pump carries what waits on the ring's links to where it is bound, on this
// goroutine, until the ring is idle; deliver is inject or viaQueue.
func (rig *bridgedRig) pump(deliver func(i int, frames [][]byte)) {
	for moved := true; moved; {
		moved = false
		for lane, to := range [...]int{laneFwd0: 1, laneFwd1: 1, laneXfer: 0} {
			if frames := rig.take(lane); len(frames) > 0 {
				deliver(to, frames)
				moved = true
			}
		}
	}
}

// flowFrame builds packet seq of flow g: the source address names the flow
// (and its lane), the payload starts with both numbers, size is the frame's.
func flowFrame(tb testing.TB, g, seq, size int) []byte {
	tb.Helper()
	const headers = wire.EthernetHeaderLen + wire.IPv4MinHeaderLen + wire.UDPHeaderLen
	payload := make([]byte, size-headers)
	binary.BigEndian.PutUint32(payload[0:], uint32(g))
	binary.BigEndian.PutUint32(payload[4:], uint32(seq))
	for i := 8; i < len(payload); i++ {
		payload[i] = byte(g*131 + seq*7 + i)
	}
	p, err := wire.BuildUDP(wire.UDPSpec{
		Src: wire.Addr4(10, 0, byte(g), 1), Dst: wire.Addr4(192, 0, 2, 1),
		SrcPort: uint16(1000 + g), DstPort: 80, Payload: payload,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p.Buf
}

func flowOf(payload []byte) (g, seq int) {
	return int(binary.BigEndian.Uint32(payload[0:])), int(binary.BigEndian.Uint32(payload[4:]))
}

// idleTick is one firing of ring node 0's propagate timer (propagateLoop's
// body, one batch): what the forwarder has pending leaves on a carrier.
func (rig *bridgedRig) idleTick() {
	r, w := rig.r[0], &worker{}
	r.beginBurst(w)
	logs, commits := r.fwd.take(w.now, r.cfg.resendAfter(), r.cfg.PiggybackBudget, nil, nil)
	msg := &Message{Gen: r.Gen(), Flags: FlagPropagating, Logs: logs, Commits: commits}
	pkt := r.carrierFrom(msg.LenEstimate())
	r.processPacket(pkt, msg, w)
	w.rel = append(w.rel, pkt.Buf)
	r.flushBurst(w)
}

// TestIngestBorrowsFrames drives a ring whose every hop is ingest from an
// injector that overwrites its buffers as soon as Inject returns. Middlebox
// 1's group wraps, so its 200 B writes ride back to the forwarder and onto
// the first packet of the next burst, and packets are held at the buffer until a commit
// on a later burst releases them, long after their arena was reused. Every
// forwarded frame must still decode, and every packet must leave the chain
// once, byte for byte the frame that entered. (Mutation-checked: without the
// hold's copy this test fails.)
func TestIngestBorrowsFrames(t *testing.T) {
	rig := newBridgedRig(t, Config{}, newGenMB(16), newGenMB(200))
	openIngest(rig.r[0])
	openIngest(rig.r[1])
	const bursts, perBurst, size = 30, 24, 300
	want := make(map[int][]byte) // by sequence number; nil once it has egressed
	forwarded, egressed := 0, 0
	deliver := func(i int, frames [][]byte) {
		if i == 1 {
			for _, fr := range frames {
				p, err := wire.Parse(append([]byte(nil), fr...))
				if err != nil {
					t.Fatalf("forwarded frame unparseable: %v", err)
				}
				if _, err := DecodeMessage(p.Trailer()); err != nil {
					t.Fatalf("forwarded frame's trailer undecodable: %v", err)
				}
				forwarded++
			}
		}
		rig.inject(t, i, frames)
	}
	pump := func() {
		rig.pump(deliver)
		for _, fr := range rig.take(laneEgress) {
			p, err := wire.Parse(append([]byte(nil), fr...))
			if err != nil {
				t.Fatalf("egress frame unparseable: %v\n%x", err, fr)
			}
			_, seq := flowOf(p.Payload())
			if !bytes.Equal(fr, want[seq]) {
				t.Fatalf("egress packet %d is not the packet that entered (or left twice):\n got %x\nwant %x", seq, fr, want[seq])
			}
			want[seq] = nil
			egressed++
		}
	}
	for b := 0; b < bursts; b++ {
		burst := make([][]byte, perBurst)
		for i := range burst {
			seq := b*perBurst + i
			burst[i] = flowFrame(t, i%4, seq, size)
			want[seq] = append([]byte(nil), burst[i]...)
		}
		rig.inject(t, 0, burst)
		pump()
	}
	for i := 0; i < 8 && rig.r[1].HeldPackets() > 0; i++ {
		rig.idleTick()
		pump()
	}
	if egressed != bursts*perBurst {
		t.Fatalf("%d of %d packets left the chain (%d still held)", egressed, bursts*perBurst, rig.r[1].HeldPackets())
	}
	if held := rig.r[1].Stats().Held.Load(); held < bursts*perBurst/2 || forwarded < bursts*perBurst {
		t.Fatalf("%d packets held, %d frames forwarded: the run missed the hold or the forward path", held, forwarded)
	}
	for i, r := range rig.r {
		if s := r.Stats(); s.ParseErrors.Load() != 0 || s.ApplyTimeouts.Load() != 0 {
			t.Fatalf("ring node %d: %d parse errors, %d apply timeouts", i, s.ParseErrors.Load(), s.ApplyTimeouts.Load())
		}
	}
	if err := rig.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestFrameGrowthStaysInFrame pins the capacity limit on arena frames.
// In a three-node ring with F=2, middlebox 2's group wraps through ring node
// 0 to node 1, so a log the forwarder has pending for it rides node 0's next
// ingress packet onward: the first frame of a burst grows by a 400 B value,
// far past its headroom, with the second frame lying right behind it in the
// arena. The growth must move the first frame out, not run over the second.
// (Mutation-checked: carved without the limit, the second frame arrives
// corrupt.)
func TestIngestFrameGrowthStaysInFrame(t *testing.T) {
	cfg := Config{NumMB: 3, F: 2}
	fab := netsim.New(netsim.Config{})
	t.Cleanup(fab.Stop)
	next := fab.AddNode("r1", netsim.NodeConfig{})
	fab.AddNode("r2", netsim.NodeConfig{})
	r := NewReplica(cfg, ReplicaSpec{Index: 0, Sim: fab.AddNode("r0", netsim.NodeConfig{}), Fabric: fab,
		RingIDs: []netsim.NodeID{"r0", "r1", "r2"}, MB: newGenMB(16)})
	openIngest(r)
	r.fwd.addTransfer(&Message{Logs: []Log{{
		MB: 2, Vec: SparseVec{{Part: 1, Seq: 0}},
		Updates: []state.Update{{Key: "k", Value: bytes.Repeat([]byte{0xAB}, 400), Partition: 1}},
	}}})

	burst := [][]byte{flowFrame(t, 0, 0, rigFrame), flowFrame(t, 1, 1, rigFrame), flowFrame(t, 2, 2, rigFrame)}
	want := [][]byte{wirePayload(t, burst[0]), wirePayload(t, burst[1]), wirePayload(t, burst[2])}
	if err := fab.Inject("wan", "r0", burst); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().ParseErrors.Load(); got != 0 {
		t.Fatalf("%d frames of the burst no longer parsed", got)
	}
	for i := range want {
		in, ok := next.TryRecv(0)
		if !ok {
			t.Fatalf("%d of %d frames were forwarded", i, len(want))
		}
		if i == 0 && len(in.Frame) < rigFrame+400 {
			t.Fatalf("first frame left %d B long: the pending log did not ride it", len(in.Frame))
		}
		if got := wirePayload(t, in.Frame); !bytes.Equal(got, want[i]) {
			t.Fatalf("frame %d forwarded with payload\n%x, entered with\n%x", i, got, want[i])
		}
	}
}

// wirePayload parses a copy of frame and returns its transport payload.
func wirePayload(tb testing.TB, frame []byte) []byte {
	tb.Helper()
	p, err := wire.Parse(append([]byte(nil), frame...))
	if err != nil {
		tb.Fatalf("frame unparseable: %v", err)
	}
	return p.Payload()
}

// TestIngestQueueEquivalence drives the same 40 bursts, single-goroutine,
// through the queue path and through ingest: every link must carry
// byte-identical frames in the same order, and the stores must end equal.
// Bursts are multiples of commitEvery, so that no chunk's dissemination
// falls to the wall-clock refresh, and 48 is cut 32 + 16 on both paths.
func TestIngestQueueEquivalence(t *testing.T) {
	run := func(ingest bool) (links [3]string, stores string) {
		rig := newBridgedRig(t, Config{Burst: 32}, newGenMB(16))
		var sums [3]hash.Hash
		for i := range sums {
			sums[i] = sha256.New()
		}
		record := func(link int, frames [][]byte) {
			for _, fr := range frames {
				var n [4]byte
				binary.BigEndian.PutUint32(n[:], uint32(len(fr)))
				sums[link].Write(n[:])
				sums[link].Write(fr)
			}
		}
		w := [2]*worker{rig.r[0].newQueueWorker(), rig.r[1].newQueueWorker()}
		deliver := func(i int, frames [][]byte) {
			record(1-i, frames) // into node 1: the forward link (0); into node 0: the transfers (1)
			if ingest {
				rig.inject(t, i, frames)
			} else {
				rig.viaQueue(t, i, w[i], frames)
			}
		}
		if ingest {
			openIngest(rig.r[0])
			openIngest(rig.r[1])
		}
		seq := 0
		for b := 0; b < 40; b++ {
			burst := make([][]byte, []int{16, 32, 48}[b%3])
			for i := range burst {
				burst[i] = flowFrame(t, seq%5, seq, rigFrame)
				seq++
			}
			if ingest {
				rig.inject(t, 0, burst)
			} else {
				rig.viaQueue(t, 0, w[0], burst)
			}
			rig.pump(deliver)
			record(2, rig.take(laneEgress))
		}
		if rig.r[1].Stats().Egress.Load() == 0 || rig.r[1].Stats().Held.Load() == 0 {
			t.Fatal("no packet was held and released: the run missed the buffer")
		}
		for i := range links {
			links[i] = fmt.Sprintf("%x", sums[i].Sum(nil))
		}
		snaps := sha256.New()
		for _, st := range []state.Backend{rig.r[0].Head().Store(), rig.r[1].Follower(0).Store()} {
			snap := st.Snapshot()
			sort.Slice(snap, func(a, b int) bool { return snap[a].Key < snap[b].Key })
			for _, u := range snap {
				fmt.Fprintf(snaps, "%q=%x;", u.Key, u.Value)
			}
			snaps.Write([]byte{'|'})
		}
		return links, fmt.Sprintf("%x", snaps.Sum(nil))
	}
	qLinks, qStores := run(false)
	iLinks, iStores := run(true)
	for i, name := range []string{"node 0 → node 1", "node 1 → node 0", "node 1 → sink"} {
		if qLinks[i] != iLinks[i] {
			t.Errorf("link %s: queue path put %s on it, ingest %s", name, qLinks[i], iLinks[i])
		}
	}
	if qStores != iStores {
		t.Errorf("stores differ: queue path %s, ingest %s", qStores, iStores)
	}
}

// rxLoops starts the rig's receive goroutines, one per lane as one per
// socket, and returns the function that stops them and waits. Each checks,
// before it injects, that every flow's data packets cross its lane in order.
func (rig *bridgedRig) rxLoops(tb testing.TB, onEgress func(frame []byte)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for lane := 0; lane < numLanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			next := map[int]int{} // flow → sequence number due on this lane
			for {
				select {
				case <-done:
					return
				case <-rig.bell[lane]:
				}
				frames := rig.take(lane)
				switch lane {
				case laneEgress:
					for _, fr := range frames {
						onEgress(fr)
					}
				case laneXfer:
					rig.inject(tb, 0, frames)
				default:
					for _, fr := range frames {
						if p, err := wire.Parse(append([]byte(nil), fr...)); err != nil {
							tb.Errorf("forwarded frame unparseable: %v", err)
						} else if p.UDP.DstPort == 80 { // a data packet, not a carrier
							g, seq := flowOf(p.Payload())
							if seq != next[g] {
								tb.Errorf("flow %d: packet %d reached node 1 where %d was due", g, seq, next[g])
							}
							next[g] = seq + 1
						}
					}
					rig.inject(tb, 1, frames)
				}
			}
		}(lane)
	}
	return func() { close(done); wg.Wait() }
}

// TestIngestConcurrentFlowsFIFO has four goroutines inject disjoint flows
// into the head while two more carry the link to the buffer node and one
// the transfers back: every replica runs several ingests at once, beside
// its timers. Each flow must reach the buffer node in the order it entered
// (ingest has no queue claim to keep it), every packet must leave the chain
// exactly once and in its flow's order, and the ring must converge.
func TestIngestConcurrentFlowsFIFO(t *testing.T) {
	cfg := Config{PropagateEvery: time.Millisecond, RepairDeadline: 3 * time.Second}
	rig := newBridgedRig(t, cfg, newGenMB(16))
	rig.fwdLanes = 2
	const injectors, perFlow, burst = 4, 1500, 20
	var seen [injectors][perFlow]bool // egress goroutine only
	var last [injectors]int           // egress goroutine only: the flow's last packet out
	var delivered, reordered atomic.Int64
	stopRx := rig.rxLoops(t, func(fr []byte) {
		p, err := wire.Parse(fr)
		if err != nil {
			t.Errorf("egress frame unparseable: %v", err)
			return
		}
		g, seq := flowOf(p.Payload())
		if seen[g][seq] {
			t.Errorf("flow %d: packet %d left the chain twice", g, seq)
		}
		seen[g][seq] = true
		if seq < last[g] {
			reordered.Add(1) // the packet before it overtook it
		}
		last[g] = seq
		delivered.Add(1)
	})
	rig.r[0].Start()
	rig.r[1].Start()
	defer func() {
		rig.r[0].Stop()
		rig.r[1].Stop()
		stopRx()
	}()

	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := 0; seq < perFlow; {
				frames := make([][]byte, 0, burst)
				for ; len(frames) < burst && seq < perFlow; seq++ {
					frames = append(frames, flowFrame(t, g, seq, rigFrame))
				}
				rig.inject(t, 0, frames)
			}
		}(g)
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); delivered.Load() < injectors*perFlow; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d packets left the chain", delivered.Load(), injectors*perFlow)
		}
	}
	if n := reordered.Load(); n > 0 {
		t.Errorf("%d of %d packets left the chain right after a later packet of their flow", n, injectors*perFlow)
	}
	if err := rig.chain.WaitQuiescent(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rig.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if _, _, dropped, _ := rig.fab.Stats(); dropped != 0 {
		t.Fatalf("fabric dropped %d frames", dropped)
	}
}

// TestIngestLifecycle covers the three rules at the edges of a replica's
// life. Before Start an injected burst is dropped and counted, never queued.
// A frame whose eight logs can never apply parks in the pending set, so its
// inject returns at once, and Stop under ingest load — three goroutines
// injecting, each also behind that frame in its flow — returns within
// about a burst although RepairDeadline is 10 s, releasing what is parked
// unprocessed, with no log timed out. And once Stop has returned nothing
// more is processed: later injections are dropped and counted.
func TestIngestLifecycle(t *testing.T) {
	cfg := Config{RepairDeadline: 10 * time.Second}
	rig := newBridgedRig(t, cfg, newGenMB(16))
	last := rig.r[1]
	frames := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = ftcFrame(t, i%4, i, &Message{})
		}
		return out
	}

	rig.inject(t, 1, frames(5))
	if _, delivered, dropped, _ := rig.fab.Stats(); delivered != 0 || dropped != 5 {
		t.Fatalf("before Start: delivered=%d dropped=%d, want 0 and 5", delivered, dropped)
	}
	if rig.sim[1].QueueLen(0) != 0 || last.Stats().RxFrames.Load() != 0 {
		t.Fatal("before Start: an injected burst was queued or processed")
	}

	last.Start()
	rig.inject(t, 1, frames(5))
	if got := last.Stats().RxFrames.Load(); got != 5 {
		t.Fatalf("after Start: %d frames processed of 5 injected", got)
	}

	// A frame whose logs the follower can never apply: sequence 100 of
	// partitions that have seen nothing, and no predecessor to repair from.
	stuck := &Message{}
	for p := uint16(0); p < 8; p++ {
		stuck.Logs = append(stuck.Logs, Log{MB: 0, Vec: SparseVec{{Part: p, Seq: 100}}})
	}
	begin := time.Now()
	rig.inject(t, 1, [][]byte{ftcFrame(t, 0, 0, stuck)})
	if took := time.Since(begin); took > 100*time.Millisecond || last.Stats().Pending.Load() != 1 {
		t.Fatalf("the stuck frame's inject took %v and left %d frames parked, want at once and 1", took, last.Stats().Pending.Load())
	}
	var load sync.WaitGroup
	stopLoad := make(chan struct{})
	for i := 0; i < 3; i++ {
		load.Add(1)
		go func() {
			defer load.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
					rig.inject(t, 1, frames(16))
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)

	begin = time.Now()
	last.Stop()
	if took := time.Since(begin); took > 100*time.Millisecond {
		t.Fatalf("Stop took %v with a frame parked; RepairDeadline is %v", took, cfg.RepairDeadline)
	}
	if s := last.Stats(); s.ApplyTimeouts.Load() != 0 || s.Pending.Load() != 0 {
		t.Fatalf("after Stop: %d logs timed out and %d frames still parked, want 0 and 0", s.ApplyTimeouts.Load(), s.Pending.Load())
	}
	rx := last.Stats().RxFrames.Load()
	_, _, droppedAtStop, _ := rig.fab.Stats()
	time.Sleep(20 * time.Millisecond) // the load goroutines are still injecting
	close(stopLoad)
	load.Wait()
	rig.inject(t, 1, frames(7))
	if got := last.Stats().RxFrames.Load(); got != rx {
		t.Fatalf("%d frames processed after Stop returned", got-rx)
	}
	if _, _, dropped, _ := rig.fab.Stats(); dropped < droppedAtStop+7 {
		t.Fatalf("injections into a stopped replica: dropped went %d → %d, want at least 7 more", droppedAtStop, dropped)
	}
}

// TestIngestOnlyForInjectedBursts shows, on a replica nothing drains but
// ingest, which bursts run the pipeline: one injected over the zero profile
// is processed before Inject returns and leaves the queue empty; one from a
// fabric node, and one injected over a shaped link, sit in the queue for a
// queue worker.
func TestIngestOnlyForInjectedBursts(t *testing.T) {
	rig := newBridgedRig(t, Config{}, newGenMB(16))
	openIngest(rig.r[0])
	burst := func() [][]byte {
		out := make([][]byte, 6)
		for i := range out {
			out[i] = flowFrame(t, 0, i, rigFrame)
		}
		return out
	}
	rx := func() uint64 { return rig.r[0].Stats().RxFrames.Load() }

	rig.inject(t, 0, burst())
	if rx() != 6 || rig.sim[0].QueueLen(0) != 0 {
		t.Fatalf("injected burst: %d frames processed, %d queued; want 6 and 0", rx(), rig.sim[0].QueueLen(0))
	}
	if got := rig.r[0].Sched().Bursts.Value(); got != 1 || rig.r[0].Sched().Burst.Value() != 6 {
		t.Fatalf("sched stats read %d bursts, last of %d; want 1 and 6", got, rig.r[0].Sched().Burst.Value())
	}
	if err := rig.wan.SendBurst("r0", burst()); err != nil {
		t.Fatal(err)
	}
	if rx() != 6 || rig.sim[0].QueueLen(0) != 6 {
		t.Fatalf("in-fabric burst: %d frames processed, %d queued; want 6 and 6", rx(), rig.sim[0].QueueLen(0))
	}
	rig.fab.SetLink("far", "r0", netsim.LinkProfile{LossRate: 1e-9})
	if err := rig.fab.Inject("far", "r0", burst()); err != nil {
		t.Fatal(err)
	}
	if rx() != 6 || rig.sim[0].QueueLen(0) != 12 {
		t.Fatalf("burst over a lossy link: %d frames processed, %d queued; want 6 and 12", rx(), rig.sim[0].QueueLen(0))
	}
}
