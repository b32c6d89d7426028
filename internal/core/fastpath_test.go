package core

import (
	"testing"

	"github.com/ftsfc/ftc/internal/netsim"
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
	out, ok := rig.next.Recv(0)
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
// forwarding path: at most 2 allocations per forwarded frame in steady
// state (the target is 0; 2 leaves slack for map-internal churn).
func TestFastPathAllocs(t *testing.T) {
	rig := newFastPathRig(t)
	for i := 0; i < 200; i++ {
		rig.hop(t) // warm the decode arenas, route cache, and frame pool
	}
	if n := testing.AllocsPerRun(500, func() { rig.hop(t) }); n > 2 {
		t.Fatalf("fast path allocates %.2f times per hop, budget is 2", n)
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
