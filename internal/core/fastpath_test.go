package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// fastPathRig builds a mid-ring pass-through replica: an extension node
// that is neither the forwarder (ring node 0) nor the buffer (last node)
// and hosts no middlebox, so a one-frame burst through its worker exercises
// exactly the steady-state per-hop forwarding work — parse, piggyback
// decode, commit merge, log replication checks, trailer re-encode, flush.
// The next-hop node's queue is drained by the caller.
type fastPathRig struct {
	fab   *netsim.Fabric
	r     *Replica
	next  *netsim.Node
	w     *worker
	tmpl  []byte // frame template: UDP packet + FTC option + trailer
	frame []byte // reusable mutation buffer for the frame under test
}

func newFastPathRig(tb testing.TB) *fastPathRig {
	tb.Helper()
	// N=1, F=3 → ring of 4; node 2 is an extension replica that follows
	// middlebox 0 and is tail of nothing.
	cfg := Config{NumMB: 1, F: 3}
	fab := netsim.New(netsim.Config{})
	tb.Cleanup(fab.Stop)
	for _, id := range []netsim.NodeID{"r0", "r1", "r3"} {
		fab.AddNode(id, netsim.NodeConfig{QueueCap: 64})
	}
	sim := fab.AddNode("r2", netsim.NodeConfig{QueueCap: 64})
	r := NewReplica(cfg, ReplicaSpec{
		Index:   2,
		Sim:     sim,
		Fabric:  fab,
		RingIDs: []netsim.NodeID{"r0", "r1", "r2", "r3"},
	})

	// A representative in-flight frame: data packet with the FTC option and
	// a trailer carrying one log (already replicated upstream — the noop
	// duplicate applies without state changes) and one commit vector.
	pkt := mustCarrier()
	if err := pkt.InsertFTCOption(); err != nil {
		tb.Fatalf("InsertFTCOption: %v", err)
	}
	msg := &Message{
		Logs:    []Log{{MB: 0, Flags: LogNoop, Vec: SparseVec{{Part: 3, Seq: 0}}}},
		Commits: []Commit{{MB: 0, Vec: SparseVec{{Part: 3, Seq: 0}}}},
	}
	if err := pkt.SetTrailer(msg.Encode(nil)); err != nil {
		tb.Fatalf("SetTrailer: %v", err)
	}
	rig := &fastPathRig{
		fab:  fab,
		r:    r,
		next: fab.Node("r3"),
		w:    &worker{},
		tmpl: append([]byte(nil), pkt.Buf...),
	}
	rig.frame = make([]byte, len(rig.tmpl), len(rig.tmpl)+trailerHeadroom)
	return rig
}

// recvDeadline bounds a test's receive: a frame that never arrives fails
// the test instead of blocking it, and every other result in the package,
// until the package timeout.
const recvDeadline = 10 * time.Second

// recvWithin takes the next frame off queue q of n: false once the node has
// crashed, and tb fails when no frame comes within recvDeadline. A frame
// already queued costs no allocation, so the allocation gates use it too.
func recvWithin(tb testing.TB, n *netsim.Node, q int) (netsim.Inbound, bool) {
	var deadline time.Time
	for {
		if in, ok := n.TryRecv(q); ok {
			return in, true
		}
		switch {
		case n.Crashed():
			return netsim.Inbound{}, false
		case deadline.IsZero():
			deadline = time.Now().Add(recvDeadline)
		case time.Now().After(deadline):
			tb.Errorf("no frame on %s queue %d within %v", n.ID(), q, recvDeadline)
			return netsim.Inbound{}, false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// trailerHeadroom leaves room for in-place trailer growth during a hop.
const trailerHeadroom = 128

// forwardOne pushes the template frame through one replica hop as a burst of
// one and returns the forwarded copy from the next node's queue.
func (rig *fastPathRig) forwardOne(tb testing.TB) []byte {
	rig.frame = rig.frame[:len(rig.tmpl)]
	copy(rig.frame, rig.tmpl)
	rig.r.beginBurst(rig.w)
	rig.w.last = true
	retained := rig.r.handleFrame(netsim.Inbound{From: "r1", Frame: rig.frame}, rig.w)
	rig.r.flushBurst(rig.w)
	if retained {
		tb.Fatal("pass-through hop retained the frame")
	}
	out, ok := recvWithin(tb, rig.next, 0)
	if !ok {
		tb.Fatal("frame was not forwarded")
	}
	return out.Frame
}

// hop is forwardOne with the forwarded copy recycled.
func (rig *fastPathRig) hop(tb testing.TB) {
	netsim.ReleaseFrame(rig.forwardOne(tb))
}

// TestFastPathAllocs pins the zero-allocation budget of the per-hop
// forwarding path: no allocation per forwarded frame in steady state.
func TestFastPathAllocs(t *testing.T) {
	rig := newFastPathRig(t)
	for i := 0; i < 200; i++ {
		rig.hop(t) // warm the decode arenas, route cache, and frame pool
	}
	if n := testing.AllocsPerRun(500, func() { rig.hop(t) }); n != 0 {
		t.Fatalf("fast path allocates %.2f times per hop, budget is 0", n)
	}
}

// BenchmarkFastPathAllocs measures the steady-state per-hop forwarding
// path: one frame through parse → decode → merge → re-encode → forward,
// with the forwarded copy drained and recycled.
func BenchmarkFastPathAllocs(b *testing.B) {
	rig := newFastPathRig(b)
	for i := 0; i < 200; i++ {
		rig.hop(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.hop(b)
	}
}

// TestFastPathForwardEquivalence checks that the scratch-decoder + append-
// encode hop forwards a semantically identical message to a fresh decode of
// the original trailer (modulo the commit this replica's position strips).
func TestFastPathForwardEquivalence(t *testing.T) {
	rig := newFastPathRig(t)
	fwd, err := wire.Parse(rig.forwardOne(t))
	if err != nil {
		t.Fatalf("forwarded frame unparseable: %v", err)
	}
	got, err := DecodeMessage(fwd.Trailer())
	if err != nil {
		t.Fatalf("forwarded trailer undecodable: %v", err)
	}
	orig, err := wire.Parse(rig.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeMessage(orig.Trailer())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Logs) != len(want.Logs) || len(got.Commits) != len(want.Commits) {
		t.Fatalf("forwarded %d logs / %d commits, want %d / %d",
			len(got.Logs), len(got.Commits), len(want.Logs), len(want.Commits))
	}
	for i := range want.Logs {
		g, w := got.Logs[i], want.Logs[i]
		if g.MB != w.MB || g.Flags != w.Flags || len(g.Vec) != len(w.Vec) {
			t.Fatalf("log %d mutated in flight: got %+v want %+v", i, g, w)
		}
	}
}

// genMB mirrors mbox.Gen (core cannot import it): every packet writes size
// bytes derived from its RSS hash into one of 16 precomputed keys, filling
// the transaction's own value buffer as Gen does.
type genMB struct {
	size int
	keys [16]string
}

func newGenMB(size int) *genMB {
	g := &genMB{size: size}
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("gen-%d", i)
	}
	return g
}

func (g *genMB) Name() string { return "gen" }

func (g *genMB) Process(p *wire.Packet, tx state.Txn) (Verdict, error) {
	seed := wire.RSSHash(p.Buf)
	val, err := tx.Write(g.keys[seed%uint64(len(g.keys))], g.size)
	if err != nil {
		return Drop, err
	}
	for i := range val {
		val[i] = byte(seed >> (uint(i%8) * 8))
	}
	return Forward, nil
}

// hopBurst is the burst size the role rigs drive; rigFrame the frame size.
const (
	hopBurst = 32
	rigFrame = 128
)

// udpFrame builds a UDP frame of exactly size bytes for flow i.
func udpFrame(tb testing.TB, size, i int) []byte {
	tb.Helper()
	const headers = wire.EthernetHeaderLen + wire.IPv4MinHeaderLen + wire.UDPHeaderLen
	p, err := wire.BuildUDP(wire.UDPSpec{
		Src: wire.Addr4(10, 0, 0, 1), Dst: wire.Addr4(10, 0, 1, 1),
		SrcPort: uint16(1000 + i), DstPort: 80,
		Payload: make([]byte, size-headers),
	})
	if err != nil {
		tb.Fatalf("BuildUDP: %v", err)
	}
	if len(p.Buf) != size {
		tb.Fatalf("built a %d B frame, want %d", len(p.Buf), size)
	}
	return p.Buf
}

// roleRig is a two-node ring (NumMB=1, F=1) whose replicas are driven by the
// test goroutine instead of their run loops: node 0 is forwarder and head of
// the one middlebox, node 1 its follower, tail and the egress buffer. Frames
// cross the real fabric, so every hop sees a pooled receiver-owned copy.
type roleRig struct {
	fab               *netsim.Fabric
	gen, n0, n1, sink *netsim.Node
	head, last        *Replica
	hw, lw            *worker
	ingress           [][]byte // hopBurst raw frames, one flow each
	// viaIngest makes the hops inject their burst from outside the fabric,
	// so the replica's ingest runs it (arena copy, ingest worker) instead of
	// the rig draining the queue into hw/lw.
	viaIngest bool
}

// newIngestRoleRig is newRoleRig with both replicas open to injected bursts.
func newIngestRoleRig(tb testing.TB, frameSize int) *roleRig {
	rig := newRoleRig(tb, frameSize)
	rig.viaIngest = true
	openIngest(rig.head)
	openIngest(rig.last)
	return rig
}

// run puts one burst through r: injected when the rig drives ingest (Inject
// only borrows the frames), else sent by from and drained into w.
func (rig *roleRig) run(tb testing.TB, r *Replica, w *worker, from *netsim.Node, frames [][]byte) {
	if rig.viaIngest {
		if err := rig.fab.Inject("wan", r.SimID(), frames); err != nil {
			tb.Fatal(err)
		}
		return
	}
	if err := from.SendBurst(r.SimID(), frames); err != nil {
		tb.Fatal(err)
	}
	r.handleBurst(w, r.sim.RecvBurst(0, w.in[:hopBurst]))
}

func newRoleRig(tb testing.TB, frameSize int) *roleRig {
	tb.Helper()
	cfg := Config{NumMB: 1, F: 1}
	fab := netsim.New(netsim.Config{})
	tb.Cleanup(fab.Stop)
	node := func(id netsim.NodeID) *netsim.Node {
		return fab.AddNode(id, netsim.NodeConfig{QueueCap: 64 * hopBurst})
	}
	rig := &roleRig{fab: fab, gen: node("gen"), n0: node("r0"), n1: node("r1"), sink: node("sink")}
	ring := []netsim.NodeID{"r0", "r1"}
	rig.head = NewReplica(cfg, ReplicaSpec{Index: 0, Sim: rig.n0, Fabric: fab, RingIDs: ring, MB: newGenMB(16)})
	rig.last = NewReplica(cfg, ReplicaSpec{Index: 1, Sim: rig.n1, Fabric: fab, RingIDs: ring, Egress: "sink"})
	rig.hw, rig.lw = rig.head.newQueueWorker(), rig.last.newQueueWorker()
	for i := 0; i < hopBurst; i++ {
		rig.ingress = append(rig.ingress, udpFrame(tb, frameSize, i))
	}
	return rig
}

// drain empties n's queue, recycling the frames, and returns how many.
func drain(n *netsim.Node) int {
	cnt := 0
	for {
		in, ok := n.TryRecv(0)
		if !ok {
			return cnt
		}
		netsim.ReleaseFrame(in.Frame)
		cnt++
	}
}

// headHopBudget is allocations per packet. The hop measures 0.19: amortized
// slab chunks and per-burst logs; the middlebox's value costs nothing.
const headHopBudget = 0.3

// headHop sends one burst of raw packets from the generator and runs it
// through the head hop: forwarder take, option insert, packet transaction,
// coalescing, trailer encode, flush to node 1, whose queue it then drains.
func (rig *roleRig) headHop(tb testing.TB) {
	rig.run(tb, rig.head, rig.hw, rig.gen, rig.ingress)
	// Nothing downstream commits in this rig; prune by the head's own vector
	// so the retransmission buffer stays at its steady one-burst size.
	rig.head.Head().Buffer().Prune(rig.head.Head().Vector())
	if got := drain(rig.n1); got != hopBurst {
		tb.Fatalf("head forwarded %d frames of a %d burst", got, hopBurst)
	}
}

// TestFastPathHeadAllocs gates the hop gen-small's node 0 performs: a
// forwarder-and-head replica hosting a 16 B Gen may allocate only amortized
// chunks and per-burst logs.
func TestFastPathHeadAllocs(t *testing.T) {
	rig := newRoleRig(t, rigFrame)
	for i := 0; i < 50; i++ {
		rig.headHop(t)
	}
	per := testing.AllocsPerRun(100, func() { rig.headHop(t) }) / hopBurst
	t.Logf("head hop: %.2f allocations per packet", per)
	if per > headHopBudget {
		t.Fatalf("head hop allocates %.2f times per packet, budget is %.2f", per, headHopBudget)
	}
}

// BenchmarkFastPathHead is the head hop per packet (one op = one packet).
func BenchmarkFastPathHead(b *testing.B) {
	rig := newRoleRig(b, rigFrame)
	for i := 0; i < 50; i++ {
		rig.headHop(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += hopBurst {
		rig.headHop(b)
	}
}

// bufferBurst builds what the last node receives for one burst when the
// head coalesces: data packets carrying only an elided marker for their own
// transaction, the final one also carrying the commit that covers the
// burst. (The run's substance is the follower role's cost, paid per run and
// per key, not per packet; the rig leaves it out to price the buffer alone.)
func (rig *roleRig) bufferBurst(tb testing.TB, seq *uint64) [][]byte {
	frames := make([][]byte, hopBurst)
	for i := range frames {
		msg := &Message{Logs: []Log{{MB: 0, Flags: LogElided, Vec: SparseVec{{Part: 3, Seq: *seq}}}}}
		*seq++
		if i == hopBurst-1 {
			msg.Commits = []Commit{{MB: 0, Vec: SparseVec{{Part: 3, Seq: *seq}}}}
		}
		frames[i] = trailered(tb, rig.ingress[i], msg)
	}
	return frames
}

// trailered is a copy of the raw frame as the hop before the last node
// sends it: FTC option inserted, msg as its trailer.
func trailered(tb testing.TB, raw []byte, msg *Message) []byte {
	pkt, err := wire.Parse(append([]byte(nil), raw...))
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

const bufferHopBudget = 0.25 // allocations per packet

// heldPerBurst is how many packets of a bufferBurst the buffer holds: all
// but the final one, whose commit covers them all — and the final one too
// when an earlier packet of the burst shares its flow partition, for it
// may not leave ahead of that packet.
func (rig *roleRig) heldPerBurst() uint64 {
	last := partOf(rig.ingress[hopBurst-1])
	for _, fr := range rig.ingress[:hopBurst-1] {
		if partOf(fr) == last {
			return hopBurst
		}
	}
	return hopBurst - 1
}

// bufferHop runs one prepared burst through the last node: the packets are
// held (heldPerBurst), and the final one's commit releases them all at the
// flush. All hopBurst packets must have left through the sink.
func (rig *roleRig) bufferHop(tb testing.TB, frames [][]byte) {
	held := rig.last.Stats().Held.Load()
	rig.run(tb, rig.last, rig.lw, rig.n0, frames)
	if got, want := rig.last.Stats().Held.Load()-held, rig.heldPerBurst(); got != want {
		tb.Fatalf("buffer held %d packets of a %d burst, want %d", got, hopBurst, want)
	}
	if got := drain(rig.sink); got != hopBurst {
		tb.Fatalf("buffer released %d packets of a %d burst", got, hopBurst)
	}
	drain(rig.n0) // buffer → forwarder transfers
}

// bufferRuns prepares runs+warm bursts up front (building frames allocates;
// the hop must not pay for it) and returns a function running the next one.
func (rig *roleRig) bufferRuns(tb testing.TB, runs int) func() {
	var seq uint64
	bursts := make([][][]byte, runs)
	for i := range bursts {
		bursts[i] = rig.bufferBurst(tb, &seq)
	}
	next := 0
	return func() {
		rig.bufferHop(tb, bursts[next])
		next++
	}
}

// TestFastPathBufferAllocs gates the egress-buffer hop: holding a packet and
// releasing it on a commit costs amortized chunk carves, not an object per
// packet (the release itself allocates nothing: TestBufferReleaseAllocs).
func TestFastPathBufferAllocs(t *testing.T) {
	rig := newRoleRig(t, rigFrame)
	const warm, runs = 50, 100
	hop := rig.bufferRuns(t, warm+runs+1) // AllocsPerRun adds a warm-up call
	for i := 0; i < warm; i++ {
		hop()
	}
	per := testing.AllocsPerRun(runs, hop) / hopBurst
	t.Logf("buffer hop: %.2f allocations per packet", per)
	if per > bufferHopBudget {
		t.Fatalf("buffer hop allocates %.2f times per packet, budget is %.2f", per, bufferHopBudget)
	}
}

// BenchmarkFastPathBuffer is the buffer hop per packet (one op = one packet).
func BenchmarkFastPathBuffer(b *testing.B) {
	rig := newRoleRig(b, rigFrame)
	const warm = 50
	hop := rig.bufferRuns(b, warm+(b.N+hopBurst-1)/hopBurst)
	for i := 0; i < warm; i++ {
		hop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += hopBurst {
		hop()
	}
}

// TestFastPathIngestAllocs gates the three roles behind ingest (DESIGN.md
// §6): the arena is grown once and the ingest worker is reused, so the head
// role keeps the queue path's budget, a pass-through hop allocates nothing,
// and the buffer role stays within its quarter allocation per packet with
// the hold's copy coming from the frame pool.
func TestFastPathIngestAllocs(t *testing.T) {
	t.Run("head", func(t *testing.T) {
		rig := newIngestRoleRig(t, rigFrame)
		for i := 0; i < 50; i++ {
			rig.headHop(t)
		}
		per := testing.AllocsPerRun(100, func() { rig.headHop(t) }) / hopBurst
		t.Logf("ingest head hop: %.2f allocations per packet", per)
		if per > headHopBudget {
			t.Fatalf("ingest head hop allocates %.2f times per packet, budget is %.2f", per, headHopBudget)
		}
	})
	t.Run("pass-through", func(t *testing.T) {
		rig := newFastPathRig(t)
		openIngest(rig.r)
		burst := make([][]byte, hopBurst)
		for i := range burst {
			burst[i] = rig.tmpl
		}
		hop := func() {
			if err := rig.fab.Inject("wan", "r2", burst); err != nil {
				t.Fatal(err)
			}
			if got := drain(rig.next); got != hopBurst {
				t.Fatalf("hop forwarded %d frames of a %d burst", got, hopBurst)
			}
		}
		for i := 0; i < 50; i++ {
			hop()
		}
		if n := testing.AllocsPerRun(100, hop); n != 0 {
			t.Fatalf("ingest pass-through hop allocates %.2f times per burst, budget is 0", n)
		}
	})
	t.Run("buffer", func(t *testing.T) {
		rig := newIngestRoleRig(t, rigFrame)
		const warm, runs = 50, 100
		hop := rig.bufferRuns(t, warm+runs+1) // AllocsPerRun adds a warm-up call
		for i := 0; i < warm; i++ {
			hop()
		}
		per := testing.AllocsPerRun(runs, hop) / hopBurst
		t.Logf("ingest buffer hop: %.2f allocations per packet", per)
		if per > bufferHopBudget {
			t.Fatalf("ingest buffer hop allocates %.2f times per packet, budget is %.2f", per, bufferHopBudget)
		}
	})
}

// BenchmarkFastPathIngest is the head hop behind ingest, per packet (one op
// = one packet): what ring node 0 of a bridged chain does with each burst a
// receive goroutine injects.
func BenchmarkFastPathIngest(b *testing.B) {
	rig := newIngestRoleRig(b, rigFrame)
	for i := 0; i < 50; i++ {
		rig.headHop(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += hopBurst {
		rig.headHop(b)
	}
}

// TestIngressFrameKeepsPooledBuffer checks the fabric's receiver headroom:
// a frame whose length equals its pool class (256 B, 1 KiB) takes the FTC
// option and a trailer at the head without leaving the buffer it arrived
// in, so nothing is reallocated and the buffer returns to the pool.
func TestIngressFrameKeepsPooledBuffer(t *testing.T) {
	for _, size := range []int{256, 1024} {
		rig := newRoleRig(t, size)
		if err := rig.gen.Send("r0", rig.ingress[0]); err != nil {
			t.Fatal(err)
		}
		in, ok := recvWithin(t, rig.n0, 0)
		if !ok {
			t.Fatal("ingress frame not delivered")
		}
		w := rig.hw
		rig.head.beginBurst(w)
		w.last = true
		if rig.head.handleFrame(in, w) {
			t.Fatal("head retained the frame")
		}
		if len(w.out) != 1 || len(w.out[0]) <= size {
			t.Fatalf("%d B frame: head queued %d frames, want one grown by option and trailer", size, len(w.out))
		}
		if &w.pkt.Buf[0] != &in.Frame[0] || &w.out[0][0] != &in.Frame[0] {
			t.Fatalf("%d B frame left its pooled buffer at the head", size)
		}
		rig.head.flushBurst(w)
		fwd, ok := recvWithin(t, rig.n1, 0)
		if !ok {
			t.Fatal("frame was not forwarded")
		}
		p, err := wire.Parse(fwd.Frame)
		if err != nil || !p.HasFTCOption() || p.Trailer() == nil {
			t.Fatalf("%d B frame reached the next hop without option and trailer (err %v)", size, err)
		}
	}
}
