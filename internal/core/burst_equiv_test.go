package core

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// flowMB keeps one counter per flow (destination port), so the final state
// depends on exactly which packets survived — a stronger equivalence digest
// than a single shared counter.
type flowMB struct{ prefix string }

func (m *flowMB) Name() string { return "flow-" + m.prefix }

func (m *flowMB) Process(p *wire.Packet, tx state.Txn) (Verdict, error) {
	if _, err := counterBump(tx, fmt.Sprintf("%s-%d", m.prefix, p.UDP.DstPort)); err != nil {
		return Drop, err
	}
	return Forward, nil
}

// payloadID extracts the sequence number sendPackets embeds as "pkt-%06d".
func payloadID(t testing.TB, p *wire.Packet) int {
	t.Helper()
	var id int
	if _, err := fmt.Sscanf(string(p.Payload()), "pkt-%06d", &id); err != nil {
		t.Fatalf("egress payload %q unparseable: %v", p.Payload(), err)
	}
	return id
}

// drainSink collects payload IDs at the sink until the chain is silent and
// the egress buffer is empty.
func drainSink(t testing.TB, h *testHarness, timeout time.Duration) []int {
	t.Helper()
	var ids []int
	deadline := time.Now().Add(timeout)
	idle := 0
	for {
		if in, ok := h.sink.TryRecv(0); ok {
			p, err := wire.Parse(in.Frame)
			if err != nil {
				t.Fatalf("egress packet unparseable: %v", err)
			}
			ids = append(ids, payloadID(t, p))
			idle = 0
			continue
		}
		if idle > 300 && h.chain.Replica(h.chain.Len()-1).HeldPackets() == 0 {
			return ids
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain did not drain: %d collected, %d still held",
				len(ids), h.chain.Replica(h.chain.Len()-1).HeldPackets())
		}
		idle++
		time.Sleep(2 * time.Millisecond)
	}
}

// storeDigest is the chain-wide store digest (now exported as
// Chain.StoreDigest for the chaos harness; the tests keep this shim).
func storeDigest(h *testHarness) string { return h.chain.StoreDigest() }

// workloadOpts selects one scheduling configuration for runSchedWorkload.
type workloadOpts struct {
	burst   int // 0 = adaptive controller
	workers int
}

// runBurstWorkload pushes n packets through a fresh chain at the given burst
// size. Loss is confined to the generator→ingress link: its per-link rng is
// seeded from the fabric seed and consumed in send order, and the single test
// goroutine sends sequentially, so the set of surviving packets is a pure
// function of the seed — identical across burst sizes. Inside the chain all
// links are reliable and flow-controlled, so every survivor must egress.
// Returns the sorted delivered IDs and the converged state digest.
func runBurstWorkload(t *testing.T, burst, n int) ([]int, string) {
	return runSchedWorkload(t, workloadOpts{burst: burst, workers: 1}, n)
}

// runSchedWorkload is runBurstWorkload generalized over worker count and
// burst mode, for the stealing/adaptive equivalence proofs. The
// delivered set stays a pure function of the fabric seed because loss
// happens on the generator link before any scheduling decision, and the
// state digest stays order-independent because the workload's middleboxes
// only bump commutative per-flow counters.
func runSchedWorkload(t *testing.T, o workloadOpts, n int) ([]int, string) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = o.workers
	cfg.Burst = o.burst
	mbs := []Middlebox{&flowMB{"a"}, &countMB{"c1"}, &flowMB{"b"}}
	h := newHarness(t, cfg, mbs, netsim.Config{Seed: 42})
	h.fabric.SetLink("gen", h.chain.IngressID(), netsim.LinkProfile{LossRate: 0.15})

	h.sendPackets(t, n)
	ids := drainSink(t, h, 30*time.Second)
	waitForQuiescence(t, h, 0)

	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("%+v: packet %d delivered twice", o, id)
		}
		if id < 0 || id >= n {
			t.Fatalf("%+v: delivered unknown packet %d", o, id)
		}
		seen[id] = true
	}
	sort.Ints(ids)
	return ids, storeDigest(h)
}

// TestBurstEquivalence is the burst=1 vs burst=32 equivalence proof: under
// deterministic ingress loss, both burst sizes must deliver exactly the same
// packets and converge every head and follower store to exactly the same
// state. Burst 1 exercises the
// degenerate flush-after-every-frame path, which must behave like the
// original per-packet pipeline.
func TestBurstEquivalence(t *testing.T) {
	const n = 400
	t.Run("2pl", func(t *testing.T) {
		ids1, dig1 := runBurstWorkload(t, 1, n)
		ids32, dig32 := runBurstWorkload(t, 32, n)
		if len(ids1) == 0 || len(ids1) == n {
			t.Fatalf("loss link ineffective: %d of %d delivered", len(ids1), n)
		}
		if len(ids1) != len(ids32) {
			t.Fatalf("delivered %d packets at burst=1, %d at burst=32", len(ids1), len(ids32))
		}
		for i := range ids1 {
			if ids1[i] != ids32[i] {
				t.Fatalf("delivered sets diverge at %d: burst=1 has %d, burst=32 has %d",
					i, ids1[i], ids32[i])
			}
		}
		if dig1 != dig32 {
			t.Fatalf("state digests diverge:\nburst=1:\n%s\nburst=32:\n%s", dig1, dig32)
		}
	})
}

// TestStealEquivalence is the scheduling counterpart of
// TestBurstEquivalence: with two stealing workers, fixed burst 32 and the
// adaptive controller must deliver exactly the same packets as the
// per-packet reference (fixed burst 1) under deterministic ingress loss and
// converge every head and follower store to exactly the same state. Claim
// migration between workers must be invisible in the output.
func TestStealEquivalence(t *testing.T) {
	variants := []struct {
		name string
		o    workloadOpts
	}{
		{"steal-fixed1", workloadOpts{burst: 1, workers: 2}},
		{"steal-fixed32", workloadOpts{burst: 32, workers: 2}},
		{"steal-adaptive", workloadOpts{burst: 0, workers: 2}},
	}
	const n = 400
	t.Run("2pl", func(t *testing.T) {
		refIDs, refDig := runSchedWorkload(t, variants[0].o, n)
		if len(refIDs) == 0 || len(refIDs) == n {
			t.Fatalf("loss link ineffective: %d of %d delivered", len(refIDs), n)
		}
		for _, v := range variants[1:] {
			ids, dig := runSchedWorkload(t, v.o, n)
			if len(ids) != len(refIDs) {
				t.Fatalf("%s delivered %d packets, %s delivered %d",
					variants[0].name, len(refIDs), v.name, len(ids))
			}
			for i := range ids {
				if ids[i] != refIDs[i] {
					t.Fatalf("delivered sets diverge at %d: %s has %d, %s has %d",
						i, variants[0].name, refIDs[i], v.name, ids[i])
				}
			}
			if dig != refDig {
				t.Fatalf("state digests diverge:\n%s:\n%s\n%s:\n%s",
					variants[0].name, refDig, v.name, dig)
			}
		}
	})
}

// TestBurstCrashMidBurst crashes and replaces a replica while bursts are in
// flight on lossy, reordering links. Whatever frames die with the replica,
// the chain must uphold its invariants: no packet egresses twice, every
// egressed packet was actually sent, and after the dust settles every
// follower store matches its head exactly. Run with -race this also shakes
// out data races between burst flushing and crash teardown.
func TestBurstCrashMidBurst(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	mbs := []Middlebox{&flowMB{"a"}, &countMB{"c1"}, &flowMB{"b"}}
	h := newHarness(t, cfg, mbs, netsim.Config{
		Seed: 9,
		DefaultLink: netsim.LinkProfile{
			Latency:     100 * time.Microsecond,
			LossRate:    0.01,
			ReorderRate: 0.05,
		},
	})

	// The sender restarts IDs 0..19 every round, so each ID is sent n/20
	// times; it runs concurrently with the crash and must not touch t.
	const n = 600
	sent := make(chan int, 1)
	go func() {
		sends := 0
		for i := 0; i < n; i++ {
			id := i % 20
			p, err := wire.BuildUDP(wire.UDPSpec{
				SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
				Src: wire.Addr4(10, 0, byte(id>>8), byte(id)), Dst: wire.Addr4(192, 0, 2, 1),
				SrcPort: uint16(1024 + id), DstPort: uint16(2000 + id%4),
				Payload:  []byte(fmt.Sprintf("pkt-%06d", id)),
				Headroom: 512,
			})
			if err != nil {
				break
			}
			if h.gen.Send(h.chain.IngressID(), p.Buf) == nil {
				sends++
			}
			if id == 19 {
				time.Sleep(time.Millisecond)
			}
		}
		sent <- sends
	}()

	// Crash the middle replica while the sender is mid-stream, then bring up
	// a replacement. Workers are draining 20-packet batches as this lands, so
	// the crash interrupts bursts between receive and flush.
	time.Sleep(15 * time.Millisecond)
	h.chain.Crash(1)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := h.chain.Replace(ctx, 1); err != nil {
		t.Fatal(err)
	}
	<-sent

	// Drain and verify: delivered ⊆ sent (IDs 0..19, parse-checked), and the
	// per-ID delivery count never exceeds the number of sends of that ID.
	counts := make(map[int]int)
	deadline := time.Now().Add(30 * time.Second)
	idle := 0
	for idle < 400 {
		if time.Now().After(deadline) {
			break
		}
		in, ok := h.sink.TryRecv(0)
		if !ok {
			idle++
			time.Sleep(2 * time.Millisecond)
			continue
		}
		idle = 0
		p, err := wire.Parse(in.Frame)
		if err != nil {
			t.Fatalf("egress packet unparseable: %v", err)
		}
		counts[payloadID(t, p)]++
	}
	var total int
	for id, c := range counts {
		if id < 0 || id >= 20 {
			t.Fatalf("delivered unknown packet id %d", id)
		}
		if c > n/20 {
			t.Fatalf("packet id %d delivered %d times, only sent %d", id, c, n/20)
		}
		total += c
	}
	if total == 0 {
		t.Fatal("nothing survived the crash")
	}
	t.Logf("delivered %d of %d across crash", total, n)

	// Replication invariant: followers converge to their heads.
	waitForQuiescence(t, h, 0)
	if err := h.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}
