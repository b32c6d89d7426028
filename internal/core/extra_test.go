package core

import (
	"context"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
)

func TestChainWithReorderingLinks(t *testing.T) {
	// Heavy reordering between replicas: dependency vectors must restore
	// per-partition order everywhere.
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{
		Seed: 11,
		DefaultLink: netsim.LinkProfile{
			Latency:     200 * time.Microsecond,
			Jitter:      400 * time.Microsecond,
			ReorderRate: 0.3,
		},
	})
	const n = 150
	h.sendPackets(t, n)
	h.collect(t, n, 30*time.Second)
	waitForQuiescence(t, h, n)
	for i := 0; i < 3; i++ {
		v, ok := h.chain.Replica(i).Head().Store().Get("c" + string(rune('0'+i)))
		if !ok || binary.BigEndian.Uint64(v) != n {
			t.Fatalf("mb %d counted %v under reordering", i, v)
		}
	}
}

func TestGenerationFencing(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	h.sendPackets(t, 10)
	h.collect(t, 10, 10*time.Second)

	// Bump the generation everywhere except the first node: its packets now
	// carry a stale generation and must be fenced at node 1.
	h.chain.Replica(1).SetGen(99)
	before := h.chain.Replica(1).Stats().StaleGen.Load()
	h.sendPackets(t, 20)
	deadline := time.Now().Add(5 * time.Second)
	for h.chain.Replica(1).Stats().StaleGen.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("stale-generation packets not fenced")
		}
		time.Sleep(time.Millisecond)
	}
	// Nothing new reaches the sink (all data fenced at node 1).
	time.Sleep(20 * time.Millisecond)
	drained := 0
	for {
		if _, ok := h.sink.TryRecv(0); !ok {
			break
		}
		drained++
	}
	if drained != 0 {
		t.Fatalf("%d packets crossed a generation fence", drained)
	}
}

func TestControlRPCRoundTrips(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	ctx := context.Background()

	// Ping.
	if !Ping(ctx, h.fabric, "gen", h.chain.RingID(0), time.Second) {
		t.Fatal("ping failed")
	}
	// SetGen via RPC.
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCSetGen, EncodeSetGen(0, 42)); err != nil {
		t.Fatal(err)
	}
	if h.chain.Replica(0).Gen() != 42 {
		t.Fatalf("gen = %d", h.chain.Replica(0).Gen())
	}
	// SetRoute via RPC.
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCSetRoute, EncodeSetRoute(0, 1, "elsewhere")); err != nil {
		t.Fatal(err)
	}
	if h.chain.Replica(0).nextHop() != "elsewhere" {
		t.Fatalf("route = %s", h.chain.Replica(0).nextHop())
	}
	// Fencing: raise the floor, then replay a stale term — the command must
	// be rejected and counted, while the fenced floor answers in kind.
	if resp, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCFence, EncodeFence(7)); err != nil {
		t.Fatal(err)
	} else if got := binary.BigEndian.Uint64(resp); got != 7 {
		t.Fatalf("fence floor = %d, want 7", got)
	}
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCSetRoute, EncodeSetRoute(3, 1, "stale")); err == nil {
		t.Fatal("stale-term setroute accepted")
	}
	if h.chain.Replica(0).nextHop() == "stale" {
		t.Fatal("stale-term setroute mutated the route")
	}
	if got := h.chain.Replica(0).Stats().FencedCmds.Load(); got != 1 {
		t.Fatalf("FencedCmds = %d, want 1", got)
	}
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCSetGen, EncodeSetGen(7, 43)); err != nil {
		t.Fatalf("current-term setgen rejected: %v", err)
	}
	// Fetch for an unknown middlebox errors.
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCFetch, encodeFetchReq(9)); err == nil {
		t.Fatal("fetch of foreign middlebox should fail")
	}
	// Malformed control payloads error without crashing the daemon.
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCSetGen, []byte{1}); err == nil {
		t.Fatal("short setgen accepted")
	}
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCSetRoute, []byte{1}); err == nil {
		t.Fatal("short setroute accepted")
	}
	if _, err := h.fabric.Call(ctx, "gen", h.chain.RingID(0), RPCRepair, []byte{1}); err == nil {
		t.Fatal("short repair accepted")
	}
}

func TestRepairRPCServesMissingLogs(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	h.sendPackets(t, 30)
	h.collect(t, 30, 10*time.Second)
	waitForQuiescence(t, h, 30)

	// Ask node 0 (head of mb0) for everything after an empty MAX: pruning
	// may have discarded some prefix, but the reply must decode and contain
	// only mb0 logs.
	req := encodeRepairReq(0, make([]uint64, 16))
	resp, err := h.fabric.Call(context.Background(), "gen", h.chain.RingID(0), RPCRepair, req)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Logs {
		if l.MB != 0 {
			t.Fatalf("repair returned log for mb %d", l.MB)
		}
	}
}

func TestVerticalScalingReplacement(t *testing.T) {
	// §4.3: a replacement replica may run with a different thread count.
	cfg := testConfig()
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	const n1 = 100
	h.sendPackets(t, n1)
	h.collect(t, n1, 15*time.Second)
	waitForQuiescence(t, h, n1)

	h.chain.Crash(1)
	// Build the replacement by hand with 4 workers instead of 2.
	big := cfg
	big.NumMB = 3
	big.Workers = 4
	sim := h.fabric.AddNode("ftc-r1-big", netsim.NodeConfig{Queues: 4, QueueCap: 4096})
	ringIDs := []netsim.NodeID{h.chain.RingID(0), h.chain.RingID(1), h.chain.RingID(2)}
	nr := NewReplica(big, ReplicaSpec{
		Index: 1, Sim: sim, Fabric: h.fabric,
		RingIDs: ringIDs, Egress: "sink", MB: mbs[1],
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.chain.RecoverState(ctx, nr, h.chain.ControllerTerm()); err != nil {
		t.Fatal(err)
	}
	if err := h.chain.Adopt(nr, h.chain.ControllerTerm()); err != nil {
		t.Fatal(err)
	}

	const n2 = 80
	h.sendPackets(t, n2)
	h.collect(t, n2, 15*time.Second)
	v, _ := nr.Head().Store().Get("c1")
	if binary.BigEndian.Uint64(v) != n1+n2 {
		t.Fatalf("vertical-scaled replica counter = %d, want %d", binary.BigEndian.Uint64(v), n1+n2)
	}
}

func TestForwarderUnit(t *testing.T) {
	fwd := newForwarder()
	log1 := Log{MB: 2, Vec: NewSparseVec(VecEntry{Part: 1, Seq: 0}),
		Updates: []state.Update{{Key: "k", Value: []byte("v"), Partition: 1}}}
	fwd.addTransfer(&Message{Logs: []Log{log1}})
	if fwd.pendingLen() != 1 {
		t.Fatalf("pending = %d", fwd.pendingLen())
	}
	// First take attaches the log; an immediate second take must not
	// (resend interval unexpired).
	now := time.Now()
	logs, _ := fwd.take(now, time.Second, nil, nil)
	if len(logs) != 1 {
		t.Fatalf("take1 = %d logs", len(logs))
	}
	logs, _ = fwd.take(now.Add(time.Millisecond), time.Second, nil, nil)
	if len(logs) != 0 {
		t.Fatal("unexpired log re-attached")
	}
	// After the resend interval it is attached again.
	logs, _ = fwd.take(now.Add(2*time.Second), time.Second, nil, nil)
	if len(logs) != 1 {
		t.Fatal("overdue log not resent")
	}
	// A commit covering it prunes the pending set.
	fwd.addTransfer(&Message{Commits: []Commit{{MB: 2, Vec: NewSparseVec(VecEntry{Part: 1, Seq: 1})}}})
	if fwd.pendingLen() != 0 {
		t.Fatalf("pending after commit = %d", fwd.pendingLen())
	}
	// The stored commit is handed out exactly once.
	_, commits := fwd.take(now.Add(3*time.Second), time.Second, nil, nil)
	if len(commits) != 1 {
		t.Fatalf("commits = %d", len(commits))
	}
	_, commits = fwd.take(now.Add(4*time.Second), time.Second, nil, nil)
	if len(commits) != 0 {
		t.Fatal("commit re-injected twice")
	}
	// Between two takes the stored vector is merged in place, but it is
	// neither the sender's (decode scratch) nor the one the last take handed
	// out (a timer may still be encoding that).
	sent := NewSparseVec(VecEntry{Part: 1, Seq: 7})
	fwd.addTransfer(&Message{Commits: []Commit{{MB: 2, Vec: sent}}})
	fwd.addTransfer(&Message{Commits: []Commit{{MB: 2, Vec: NewSparseVec(VecEntry{Part: 3, Seq: 1}, VecEntry{Part: 1, Seq: 8})}}})
	_, commits = fwd.take(now.Add(5*time.Second), time.Second, nil, nil)
	if len(commits) != 1 || !reflect.DeepEqual(commits[0].Vec, SparseVec{{1, 8}, {3, 1}}) {
		t.Fatalf("merged commit = %v", commits)
	}
	fwd.addTransfer(&Message{Commits: []Commit{{MB: 2, Vec: NewSparseVec(VecEntry{Part: 1, Seq: 9})}}})
	if commits[0].Vec.Get(1) != 8 || sent.Get(1) != 7 {
		t.Fatalf("a later transfer wrote through: handed out %v, sender's %v", commits[0].Vec, sent)
	}
}

func TestForwarderDropsAlreadyCommittedLogs(t *testing.T) {
	fwd := newForwarder()
	fwd.addTransfer(&Message{Commits: []Commit{{MB: 1, Vec: NewSparseVec(VecEntry{Part: 0, Seq: 5})}}})
	// A log whose write (seq 2) is already covered by commit 5 never joins
	// the pending set.
	fwd.addTransfer(&Message{Logs: []Log{{
		MB: 1, Vec: NewSparseVec(VecEntry{Part: 0, Seq: 2}),
		Updates: []state.Update{{Key: "k", Value: []byte("v")}},
	}}})
	if fwd.pendingLen() != 0 {
		t.Fatalf("committed log joined pending: %d", fwd.pendingLen())
	}
}

func TestMergeSparseMax(t *testing.T) {
	a := NewSparseVec(VecEntry{Part: 0, Seq: 3}, VecEntry{Part: 2, Seq: 1})
	b := NewSparseVec(VecEntry{Part: 0, Seq: 1}, VecEntry{Part: 1, Seq: 9})
	m := mergeMaxInto(a, b)
	if m.Get(0) != 3 || m.Get(1) != 9 || m.Get(2) != 1 || len(m) != 3 {
		t.Fatalf("merge = %v", m)
	}
	if got := mergeMaxInto(nil, b); got.Get(1) != 9 {
		t.Fatalf("nil merge = %v", got)
	}
	// A vector off the wire need not be sorted; the result still is, which
	// Get's binary search depends on.
	wire := SparseVec{{Part: 7, Seq: 2}, {Part: 1, Seq: 11}, {Part: 4, Seq: 5}, {Part: 0, Seq: 9}}
	m = mergeMaxInto(m, wire)
	want := SparseVec{{0, 9}, {1, 11}, {2, 1}, {4, 5}, {7, 2}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("unsorted merge = %v, want %v", m, want)
	}
	// Raising sequences the vector already has touches no new memory.
	if n := testing.AllocsPerRun(100, func() { m = mergeMaxInto(m, wire) }); n != 0 {
		t.Fatalf("in-place merge allocated %v times", n)
	}
}

func TestReleasableAgainst(t *testing.T) {
	lookup := map[uint16][]uint64{3: {0, 10}}
	write := Log{MB: 3, Vec: NewSparseVec(VecEntry{Part: 1, Seq: 9})}
	if !releasableAgainst([]Log{write}, lookup) {
		t.Fatal("committed write not releasable")
	}
	later := Log{MB: 3, Vec: NewSparseVec(VecEntry{Part: 1, Seq: 10})}
	if releasableAgainst([]Log{later}, lookup) {
		t.Fatal("uncommitted write releasable")
	}
	noop := Log{MB: 3, Flags: LogNoop, Vec: NewSparseVec(VecEntry{Part: 1, Seq: 10})}
	if !releasableAgainst([]Log{noop}, lookup) {
		t.Fatal("noop at the commit frontier should release")
	}
	empty := Log{MB: 3}
	if !releasableAgainst([]Log{empty}, lookup) {
		t.Fatal("empty-vec log must always release")
	}
	unknown := Log{MB: 7, Vec: NewSparseVec(VecEntry{Part: 0, Seq: 0})}
	if releasableAgainst([]Log{unknown}, lookup) {
		t.Fatal("log for unknown middlebox released")
	}
}

func TestMeasureBreakdown(t *testing.T) {
	mb := &countMB{"bd"}
	pkt := mustCarrier()
	bd, err := MeasureBreakdown(mb, pkt.Buf, 200)
	if err != nil {
		t.Fatal(err)
	}
	if bd.PacketProcessing <= 0 || bd.Locking <= 0 || bd.CopyPiggyback <= 0 ||
		bd.Forwarder <= 0 || bd.Buffer <= 0 {
		t.Fatalf("breakdown has zero components: %+v", bd)
	}
}

func TestPropagatingPacketsFlowWhenIdle(t *testing.T) {
	cfg := testConfig()
	cfg.PropagateEvery = 500 * time.Microsecond
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	h.sendPackets(t, 5)
	h.collect(t, 5, 10*time.Second)
	// After traffic stops, the forwarder should emit propagating packets
	// only while it still has pending content; either way the chain must
	// fully quiesce (all held packets released, buffers pruned over time).
	deadline := time.Now().Add(5 * time.Second)
	for h.chain.Replica(h.chain.Len()-1).HeldPackets() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("held packets never drained while idle")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.F != 1 || c.Partitions != 64 || c.Workers != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.resendAfter() != 10*time.Millisecond || c.RepairEvery <= 0 || c.RepairDeadline <= 0 {
		t.Fatalf("timer defaults = %+v", c)
	}
	if (Config{NumMB: 3, F: 2}).Ring().M() != 3 {
		t.Fatal("ring derivation")
	}
}

// TestConfigSurface makes the next Config knob a conscious decision: the
// struct holds these 11 fields and nothing else, so neither a retired switch
// nor a new one gets in without editing this list.
func TestConfigSurface(t *testing.T) {
	allowed := strings.Fields(`F NumMB Partitions Workers Burst QueueCap PropagateEvery
		RepairEvery RepairDeadline FlowTTL ExpiryClock`)
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !slices.Contains(allowed, name) {
			t.Errorf("Config.%s is not on the allowed surface", name)
		}
	}
}

func TestFetchStateCodecRoundTrip(t *testing.T) {
	fs := &FetchState{
		MB:     3,
		Vector: []uint64{1, 2, 3},
		Logs: []Log{{
			MB: 3, Vec: NewSparseVec(VecEntry{Part: 0, Seq: 0}),
			Updates: []state.Update{{Key: "k", Value: []byte("v"), Partition: 0}},
		}},
		Snapshot: []state.Update{
			{Key: "a", Value: []byte("1"), Partition: 0},
			{Key: "b", Value: nil, Partition: 1},
		},
	}
	got, err := decodeFetchState(encodeFetchState(fs))
	if err != nil {
		t.Fatal(err)
	}
	if got.MB != 3 || len(got.Vector) != 3 || len(got.Logs) != 1 || len(got.Snapshot) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Snapshot[1].Value != nil {
		t.Fatal("nil value not preserved")
	}
	// Truncations must error.
	enc := encodeFetchState(fs)
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := decodeFetchState(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestRepairReqCodec(t *testing.T) {
	mb, max, err := decodeRepairReq(encodeRepairReq(5, []uint64{7, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if mb != 5 || len(max) != 2 || max[1] != 8 {
		t.Fatalf("decoded %d %v", mb, max)
	}
}
