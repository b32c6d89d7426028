package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// countMB is a minimal Monitor-like middlebox: one read and one write of a
// shared counter per packet, so every packet produces a piggyback log.
type countMB struct{ key string }

func (c *countMB) Name() string { return "count-" + c.key }

func (c *countMB) Process(_ *wire.Packet, tx state.Txn) (Verdict, error) {
	v, _, err := tx.Get(c.key)
	if err != nil {
		return Drop, err
	}
	var n uint64
	if len(v) == 8 {
		n = binary.BigEndian.Uint64(v)
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n+1)
	return Forward, tx.Put(c.key, b[:])
}

// readMB performs a read-only transaction (noop logs).
type readMB struct{ key string }

func (r *readMB) Name() string { return "read-" + r.key }

func (r *readMB) Process(_ *wire.Packet, tx state.Txn) (Verdict, error) {
	_, _, err := tx.Get(r.key)
	return Forward, err
}

// dropOddMB filters packets with an odd destination port.
type dropOddMB struct{}

func (dropOddMB) Name() string { return "drop-odd" }

func (dropOddMB) Process(p *wire.Packet, tx state.Txn) (Verdict, error) {
	if _, err := counterBump(tx, "seen"); err != nil {
		return Drop, err
	}
	if p.UDP.DstPort%2 == 1 {
		return Drop, nil
	}
	return Forward, nil
}

func counterBump(tx state.Txn, key string) (uint64, error) {
	v, _, err := tx.Get(key)
	if err != nil {
		return 0, err
	}
	var n uint64
	if len(v) == 8 {
		n = binary.BigEndian.Uint64(v)
	}
	n++
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n)
	return n, tx.Put(key, b[:])
}

type testHarness struct {
	fabric *netsim.Fabric
	chain  *Chain
	gen    *netsim.Node
	sink   *netsim.Node
}

func testConfig() Config {
	return Config{
		F:              1,
		Partitions:     16,
		Workers:        2,
		QueueCap:       4096,
		PropagateEvery: time.Millisecond,
		RepairEvery:    2 * time.Millisecond,
		RepairDeadline: 3 * time.Second,
	}
}

func newHarness(t testing.TB, cfg Config, mbs []Middlebox, fcfg netsim.Config) *testHarness {
	t.Helper()
	f := netsim.New(fcfg)
	gen := f.AddNode("gen", netsim.NodeConfig{QueueCap: 1 << 14})
	sink := f.AddNode("sink", netsim.NodeConfig{QueueCap: 1 << 14})
	ch := NewChain(cfg, f, "ftc", mbs, "sink")
	ch.Start()
	t.Cleanup(func() {
		ch.Stop()
		f.Stop()
	})
	return &testHarness{fabric: f, chain: ch, gen: gen, sink: sink}
}

// sendPackets injects n distinct-flow UDP packets into the chain.
func (h *testHarness) sendPackets(t testing.TB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := wire.BuildUDP(wire.UDPSpec{
			SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
			Src: wire.Addr4(10, 0, byte(i>>8), byte(i)), Dst: wire.Addr4(192, 0, 2, 1),
			SrcPort: uint16(1024 + i%1000), DstPort: uint16(2000 + i%4),
			Payload:  []byte(fmt.Sprintf("pkt-%06d", i)),
			Headroom: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.gen.Send(h.chain.IngressID(), p.Buf); err != nil {
			t.Fatal(err)
		}
	}
}

// collect receives packets at the sink until n arrive or the timeout hits.
func (h *testHarness) collect(t testing.TB, n int, timeout time.Duration) []*wire.Packet {
	t.Helper()
	var out []*wire.Packet
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case <-deadline:
			t.Fatalf("collected %d of %d packets before timeout", len(out), n)
		default:
		}
		in, ok := h.sink.TryRecv(0)
		if !ok {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		p, err := wire.Parse(in.Frame)
		if err != nil {
			t.Fatalf("egress packet unparseable: %v", err)
		}
		out = append(out, p)
	}
	return out
}

func TestChainEndToEnd(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n = 200
	h.sendPackets(t, n)
	pkts := h.collect(t, n, 15*time.Second)

	// Released packets are clean: no trailer, no FTC option, valid checksums.
	for _, p := range pkts {
		if p.HasTrailer() {
			t.Fatal("egress packet still carries a trailer")
		}
		if p.HasFTCOption() {
			t.Fatal("egress packet still carries the FTC IP option")
		}
		if !p.VerifyIPChecksum() || !p.VerifyL4Checksum() {
			t.Fatal("egress packet has invalid checksums")
		}
	}

	// Every middlebox counted every packet.
	for i := 0; i < 3; i++ {
		head := h.chain.Replica(i).Head()
		v, ok := head.Store().Get(fmt.Sprintf("c%d", i))
		if !ok || binary.BigEndian.Uint64(v) != n {
			t.Fatalf("mb %d head counter = %v (ok=%v), want %d", i, v, ok, n)
		}
	}
}

// TestChainReplicationConsistency verifies the core guarantee: after all
// packets drain, every follower's store matches its head's store, and every
// follower's MAX equals the head's dependency vector.
func TestChainReplicationConsistency(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n = 300
	h.sendPackets(t, n)
	h.collect(t, n, 15*time.Second)
	waitForQuiescence(t, h, n)

	ring := h.chain.Ring()
	for j := 0; j < 3; j++ {
		head := h.chain.Replica(j).Head()
		hv := head.Vector()
		for _, i := range ring.Members(j)[1:] {
			fol := h.chain.Replica(i).Follower(uint16(j))
			if fol == nil {
				t.Fatalf("replica %d missing follower for %d", i, j)
			}
			fm := fol.Max()
			for p := range hv {
				if hv[p] != fm[p] {
					t.Fatalf("mb %d follower at %d: MAX[%d]=%d, head=%d", j, i, p, fm[p], hv[p])
				}
			}
			hs, fs := head.Store().Snapshot(), fol.Store().Snapshot()
			if len(hs) != len(fs) {
				t.Fatalf("mb %d: head %d keys, follower %d keys", j, len(hs), len(fs))
			}
			for k := range hs {
				if hs[k].Key != fs[k].Key || string(hs[k].Value) != string(fs[k].Value) {
					t.Fatalf("mb %d key %q: head=%x follower=%x", j, hs[k].Key, hs[k].Value, fs[k].Value)
				}
			}
		}
	}
}

// waitForQuiescence waits until all followers have caught up with their
// heads (propagating packets flush trailing state).
func waitForQuiescence(t testing.TB, h *testHarness, _ uint64) {
	t.Helper()
	if err := h.chain.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestChainReadOnlyMiddleboxes(t *testing.T) {
	// A mix of writing and read-only middleboxes: noop logs must not wedge
	// the chain or the buffer.
	mbs := []Middlebox{&countMB{"c0"}, &readMB{"c0"}, &readMB{"x"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n = 100
	h.sendPackets(t, n)
	h.collect(t, n, 15*time.Second)
}

func TestChainFiltering(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, dropOddMB{}, &countMB{"c2"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n = 200 // DstPort 2000+i%4: half odd, half even
	h.sendPackets(t, n)
	pkts := h.collect(t, n/2, 15*time.Second)
	for _, p := range pkts {
		if p.UDP.DstPort%2 == 1 {
			t.Fatal("filtered packet leaked")
		}
	}
	// The filtering middlebox still counted everything, and its state still
	// replicated (via head-generated propagating packets).
	waitForQuiescence(t, h, n)
	v, _ := h.chain.Replica(1).Head().Store().Get("seen")
	if binary.BigEndian.Uint64(v) != n {
		t.Fatalf("filter mb saw %d, want %d", binary.BigEndian.Uint64(v), n)
	}
	// mb2 processed only the even half.
	v2, _ := h.chain.Replica(2).Head().Store().Get("c2")
	if binary.BigEndian.Uint64(v2) != n/2 {
		t.Fatalf("mb2 counted %d, want %d", binary.BigEndian.Uint64(v2), n/2)
	}
	fol := h.chain.Replica(2).Follower(1)
	fv, ok := fol.Store().Get("seen")
	if !ok || binary.BigEndian.Uint64(fv) != n {
		t.Fatalf("filter state not replicated: %v %v", fv, ok)
	}
}

// TestQuiescentSeesQueuedFrames is the negative control for the audit's
// liveness half: frames queued at a replica that has not drained them are
// work in hand, so the chain is not quiescent, whatever its vectors say.
// Once the replicas run and drain them, it is.
func TestQuiescentSeesQueuedFrames(t *testing.T) {
	f := netsim.New(netsim.Config{})
	gen := f.AddNode("gen", netsim.NodeConfig{QueueCap: 1 << 14})
	f.AddNode("sink", netsim.NodeConfig{QueueCap: 1 << 14})
	ch := NewChain(testConfig(), f, "ftc", []Middlebox{&countMB{"c0"}, &countMB{"c1"}}, "sink")
	t.Cleanup(func() {
		ch.Stop()
		f.Stop()
	})
	h := &testHarness{fabric: f, chain: ch, gen: gen}
	const n = 9
	h.sendPackets(t, n)
	if ch.Quiescent() {
		t.Fatalf("chain quiescent with %d frames queued at ring node 0", n)
	}
	if err := ch.quiescenceError(); !strings.Contains(err.Error(), "in hand") {
		t.Fatalf("quiescence error %q does not name the queued frames", err)
	}
	ch.Start()
	if err := ch.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := ch.Replica(1).Head().Store().Get("c1"); binary.BigEndian.Uint64(v) != n {
		t.Fatalf("quiescent after mb1 counted %d of %d", binary.BigEndian.Uint64(v), n)
	}
}

func TestChainWithPacketLoss(t *testing.T) {
	// 2% loss on every link: repair must recover lost piggyback logs, and
	// every packet that survives must exit with consistent state.
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{
		Seed:        7,
		DefaultLink: netsim.LinkProfile{LossRate: 0.02},
	})
	const n = 400
	h.sendPackets(t, n)

	// Survivors: count what actually exits within a window.
	var got int
	deadline := time.After(20 * time.Second)
	idle := 0
	for idle < 400 { // ~0.8s of silence ends collection
		select {
		case <-deadline:
			idle = 1 << 30
		default:
		}
		if _, ok := h.sink.TryRecv(0); ok {
			got++
			idle = 0
		} else {
			idle++
			time.Sleep(2 * time.Millisecond)
		}
	}
	if got < n/2 {
		t.Fatalf("only %d of %d packets survived 2%% loss", got, n)
	}
	// Followers must converge to their heads despite the losses.
	waitForQuiescence(t, h, 0)
	repairs := h.chain.Replica(1).Stats().Repairs.Load() +
		h.chain.Replica(2).Stats().Repairs.Load() +
		h.chain.Replica(0).Stats().Repairs.Load()
	t.Logf("egress=%d repairs=%d", got, repairs)
}

func TestChainIdlePropagation(t *testing.T) {
	// A single packet followed by silence: the buffer must still release it
	// via timer-driven propagating packets (§5.1 "Other considerations").
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	h.sendPackets(t, 1)
	pkts := h.collect(t, 1, 10*time.Second)
	if len(pkts) != 1 {
		t.Fatal("single packet never released")
	}
	if h.chain.Replica(h.chain.Len()-1).HeldPackets() != 0 {
		t.Fatal("buffer still holds the packet")
	}
}

// TestIdleChainGoesSilent: once traffic stops and the chain has quiesced,
// carriers stop circulating. The buffer transfers every carrier's commits
// back to the forwarder, so without a stop rule ring node 0 would send the
// same commits around again every PropagateEvery, forever.
func TestIdleChainGoesSilent(t *testing.T) {
	cfg := testConfig()
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	const n = 200
	h.sendPackets(t, n)
	h.collect(t, n, 15*time.Second)
	waitForQuiescence(t, h, n)
	// The last carriers may still be on their way when quiescence is first
	// seen; within two seconds, one whole window must pass with no send.
	window := 50 * cfg.PropagateEvery
	deadline := time.Now().Add(2 * time.Second)
	for {
		before, _, _, _ := h.fabric.Stats()
		time.Sleep(window)
		after, _, _, _ := h.fabric.Stats()
		if after == before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle chain sent %d frames in %v", after-before, window)
		}
	}
}

func TestChainOutputCommit(t *testing.T) {
	// The release rule: when a packet exits, the state updates it produced
	// at the *last* middlebox (wrapped group) must already be at f+1
	// replicas. We check that at the moment of arrival at the sink, the
	// tail follower of the last middlebox has applied the packet's update.
	cfg := testConfig()
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	ring := h.chain.Ring()
	lastMB := ring.N - 1
	tailIdx := ring.Tail(lastMB)

	for i := 0; i < 50; i++ {
		h.sendPackets(t, 1)
		h.collect(t, 1, 10*time.Second)
		// On arrival, the tail's replica of c2 must have counted it.
		fol := h.chain.Replica(tailIdx).Follower(uint16(lastMB))
		v, ok := fol.Store().Get("c2")
		if !ok {
			t.Fatalf("packet %d: tail has no c2 state at release time", i)
		}
		if got := binary.BigEndian.Uint64(v); got < uint64(i+1) {
			t.Fatalf("packet %d released before tail replicated its update (tail=%d)", i, got)
		}
	}
}

func TestChainShorterThanF1UsesExtensionReplicas(t *testing.T) {
	cfg := testConfig()
	cfg.F = 2
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	if h.chain.Len() != 3 {
		t.Fatalf("ring size = %d, want 3 (extension replica)", h.chain.Len())
	}
	const n = 100
	h.sendPackets(t, n)
	h.collect(t, n, 15*time.Second)
	waitForQuiescence(t, h, n)
	// The extension replica holds replicas of both middleboxes.
	ext := h.chain.Replica(2)
	if ext.Head() != nil {
		t.Fatal("extension replica should host no middlebox")
	}
	for j := 0; j < 2; j++ {
		fol := ext.Follower(uint16(j))
		if fol == nil {
			t.Fatalf("extension replica missing follower %d", j)
		}
		v, ok := fol.Store().Get(fmt.Sprintf("c%d", j))
		if !ok || binary.BigEndian.Uint64(v) != n {
			t.Fatalf("extension replica state for mb %d = %v %v", j, v, ok)
		}
	}
}

func TestChainCrashRecoveryFollowerState(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n1 = 150
	h.sendPackets(t, n1)
	h.collect(t, n1, 15*time.Second)
	waitForQuiescence(t, h, n1)

	// Crash the middle replica and replace it.
	h.chain.Crash(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nr, err := h.chain.Replace(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The new head recovered mb1's state from its successor.
	v, ok := nr.Head().Store().Get("c1")
	if !ok || binary.BigEndian.Uint64(v) != n1 {
		t.Fatalf("recovered head state = %v %v, want %d", v, ok, n1)
	}
	// The new follower recovered mb0's state from its predecessor.
	fv, ok := nr.Follower(0).Store().Get("c0")
	if !ok || binary.BigEndian.Uint64(fv) != n1 {
		t.Fatalf("recovered follower state = %v %v", fv, ok)
	}

	// The chain keeps working after recovery.
	const n2 = 100
	h.sendPackets(t, n2)
	h.collect(t, n2, 15*time.Second)
	waitForQuiescence(t, h, n1+n2)
	v2, _ := nr.Head().Store().Get("c1")
	if binary.BigEndian.Uint64(v2) != n1+n2 {
		t.Fatalf("post-recovery counter = %d, want %d", binary.BigEndian.Uint64(v2), n1+n2)
	}
}

func TestChainCrashRecoveryOfFirstAndLastNodes(t *testing.T) {
	for _, idx := range []int{0, 2} {
		idx := idx
		t.Run(fmt.Sprintf("node%d", idx), func(t *testing.T) {
			mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}}
			h := newHarness(t, testConfig(), mbs, netsim.Config{})
			const n1 = 100
			h.sendPackets(t, n1)
			h.collect(t, n1, 15*time.Second)
			waitForQuiescence(t, h, n1)

			h.chain.Crash(idx)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := h.chain.Replace(ctx, idx); err != nil {
				t.Fatal(err)
			}
			const n2 = 80
			h.sendPackets(t, n2)
			h.collect(t, n2, 15*time.Second)
			waitForQuiescence(t, h, n1+n2)
			v, _ := h.chain.Replica(idx).Head().Store().Get(fmt.Sprintf("c%d", idx))
			if binary.BigEndian.Uint64(v) != n1+n2 {
				t.Fatalf("counter = %d, want %d", binary.BigEndian.Uint64(v), n1+n2)
			}
		})
	}
}

func TestChainF2ToleratesTwoFailures(t *testing.T) {
	cfg := testConfig()
	cfg.F = 2
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}, &countMB{"c3"}}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	const n1 = 100
	h.sendPackets(t, n1)
	h.collect(t, n1, 20*time.Second)
	waitForQuiescence(t, h, n1)

	// Two simultaneous failures.
	h.chain.Crash(1)
	h.chain.Crash(2)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Recover 2 first: its state sources (e.g. node 3 and node 1's
	// predecessor 0... ) must be alive members. Then 1.
	if _, err := h.chain.Replace(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.chain.Replace(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		v, ok := h.chain.Replica(i).Head().Store().Get(fmt.Sprintf("c%d", i))
		if !ok || binary.BigEndian.Uint64(v) != n1 {
			t.Fatalf("mb %d recovered = %v %v", i, v, ok)
		}
	}
	const n2 = 60
	h.sendPackets(t, n2)
	h.collect(t, n2, 20*time.Second)
}

func TestChainStatsAccounting(t *testing.T) {
	mbs := []Middlebox{&countMB{"c0"}, &countMB{"c1"}}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n = 50
	h.sendPackets(t, n)
	h.collect(t, n, 10*time.Second)
	last := h.chain.Replica(h.chain.Len() - 1)
	if last.Stats().Egress.Load() != n {
		t.Fatalf("egress count = %d", last.Stats().Egress.Load())
	}
	first := h.chain.Replica(0)
	if first.Stats().RxFrames.Load() < n {
		t.Fatalf("rx frames = %d", first.Stats().RxFrames.Load())
	}
}

// TestChainReleaseWithMultipleWrappedGroups pins the F≥2 release path: with
// F=2 on a 5-chain, middleboxes 3 and 4 wrap, and their commits must ride
// the full ring (through the buffer transfer) for packets to be released.
func TestChainReleaseWithMultipleWrappedGroups(t *testing.T) {
	cfg := testConfig()
	cfg.F = 2
	mbs := []Middlebox{
		&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}, &countMB{"c3"}, &countMB{"c4"},
	}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	const n = 120
	h.sendPackets(t, n)
	h.collect(t, n, 20*time.Second)
	// The buffer must drain completely once traffic stops (propagating
	// packets carry the trailing commits).
	deadline := time.Now().Add(10 * time.Second)
	for h.chain.Replica(h.chain.Len()-1).HeldPackets() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("buffer still holds %d packets", h.chain.Replica(h.chain.Len()-1).HeldPackets())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChainNeedsJumboFramesForLargeState reproduces §7.2's observation: a
// standard 1500-byte MTU drops FTC frames once piggybacked state grows,
// while jumbo frames carry them.
func TestChainNeedsJumboFramesForLargeState(t *testing.T) {
	run := func(mtu int) uint64 {
		f := netsim.New(netsim.Config{DefaultLink: netsim.LinkProfile{MTU: mtu}})
		defer f.Stop()
		gen := f.AddNode("gen", netsim.NodeConfig{QueueCap: 1 << 14})
		sink := f.AddNode("sink", netsim.NodeConfig{QueueCap: 1 << 14})
		ch := NewChain(testConfig(), f, "ftc", []Middlebox{&bigStateMB{2000}, &countMB{"c1"}}, "sink")
		ch.Start()
		defer ch.Stop()
		for i := 0; i < 20; i++ {
			p, err := wire.BuildUDP(wire.UDPSpec{
				SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
				Src: wire.Addr4(10, 3, 0, byte(i)), Dst: wire.Addr4(192, 0, 2, 1),
				SrcPort: uint16(4000 + i), DstPort: 80, Headroom: 4096,
			})
			if err != nil {
				t.Fatal(err)
			}
			gen.Send(ch.IngressID(), p.Buf)
		}
		deadline := time.Now().Add(2 * time.Second)
		var got uint64
		for time.Now().Before(deadline) {
			if _, ok := sink.TryRecv(0); ok {
				got++
				if got == 20 {
					break
				}
			} else {
				time.Sleep(time.Millisecond)
			}
		}
		if got == 20 {
			// Every packet left, so the 2 kB value rode the piggyback
			// trailer all the way to mb 0's tail follower.
			if err := ch.WaitQuiescent(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			v, ok := ch.Replica(ch.Ring().Tail(0)).Follower(0).Store().Get("big")
			if !ok || len(v) != 2000 {
				t.Fatalf("state at mb 0's tail follower = %d bytes, ok=%v, want 2000", len(v), ok)
			}
		}
		return got
	}
	if got := run(1500); got != 0 {
		t.Fatalf("2kB state fit a 1500B MTU? egress=%d", got)
	}
	if got := run(9000); got != 20 {
		t.Fatalf("jumbo frames: egress=%d, want 20", got)
	}
}

// bigStateMB writes a large value per packet, inflating piggyback messages.
type bigStateMB struct{ size int }

func (b *bigStateMB) Name() string { return "big-state" }

func (b *bigStateMB) Process(_ *wire.Packet, tx state.Txn) (Verdict, error) {
	return Forward, tx.Put("big", make([]byte, b.size))
}

// TestChainBurstWithWrappedBacklog pins the forwarder's bounded-batch
// draining: a burst at high replication factor leaves thousands of wrapped
// logs pending at once, which must ride packets in batches (a trailer body
// holds at most 0xffff bytes) until the backlog drains and every held
// packet releases.
func TestChainBurstWithWrappedBacklog(t *testing.T) {
	cfg := testConfig()
	cfg.F = 4
	cfg.Workers = 8
	cfg.PropagateEvery = 200 * time.Microsecond
	mbs := []Middlebox{
		&countMB{"c0"}, &countMB{"c1"}, &countMB{"c2"}, &countMB{"c3"}, &countMB{"c4"},
	}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	const n = 700 // enough wrapped logs to overflow a single trailer many times over
	h.sendPackets(t, n)
	h.collect(t, n, 30*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for h.chain.Replica(h.chain.Len()-1).HeldPackets() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("buffer still holds %d packets after burst", h.chain.Replica(h.chain.Len()-1).HeldPackets())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChainEgressKeepsFlowOrder sends eight interleaved flows through a
// one-middlebox chain on two workers, where the buffer node is the
// middlebox's tail: most packets are held until a commit riding a later one
// releases them. Each flow must leave the chain in the order it entered —
// a packet its own commit releases must not overtake its held flow-mates.
func TestChainEgressKeepsFlowOrder(t *testing.T) {
	h := newHarness(t, testConfig(), []Middlebox{newGenMB(16)}, netsim.Config{})
	const flows, perFlow = 8, 400
	for seq := 0; seq < perFlow; seq++ {
		for g := 0; g < flows; g++ {
			if err := h.gen.Send(h.chain.IngressID(), flowFrame(t, g, seq, rigFrame)); err != nil {
				t.Fatal(err)
			}
		}
	}
	last := make([]int, flows)
	reordered := 0
	for _, p := range h.collect(t, flows*perFlow, 30*time.Second) {
		g, seq := flowOf(p.Payload())
		if seq < last[g] {
			reordered++ // the packet before it overtook it
		}
		last[g] = seq
	}
	if reordered > 0 {
		t.Fatalf("%d of %d packets left the chain right after a later packet of their flow", reordered, flows*perFlow)
	}
}
