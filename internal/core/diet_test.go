package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// countDeltaMB is countMB with its counter key opted into delta encoding.
type countDeltaMB struct{ countMB }

func (c *countDeltaMB) DeltaPrefixes() []string { return []string{c.key} }

// dietFlowMB bumps a per-flow counter (one key per source port), so bursts of
// distinct flows exercise coalescing across many partitions, and the keys
// are delta-classified.
type dietFlowMB struct{ prefix string }

func (f *dietFlowMB) Name() string { return "dflow-" + f.prefix }

func (f *dietFlowMB) DeltaPrefixes() []string { return []string{f.prefix} }

func (f *dietFlowMB) Process(p *wire.Packet, tx state.Txn) (Verdict, error) {
	_, err := counterBump(tx, fmt.Sprintf("%s%d", f.prefix, p.UDP.SrcPort))
	if err != nil {
		return Drop, err
	}
	return Forward, nil
}

// sampleV2Message exercises every update kind and log form: a delta update, a
// delete, a full value, and a coalesced log with a base vector.
func sampleV2Message() *Message {
	return &Message{
		Ver: msgV2,
		Gen: 9,
		Logs: []Log{
			{
				MB:  1,
				Vec: NewSparseVec(VecEntry{Part: 3, Seq: 17}),
				Updates: []state.Update{
					{Key: "ctr", Partition: 3, Flags: state.UpdateDelta, Delta: -5},
					{Key: "gone", Partition: 3},
					{Key: "blob", Value: []byte("xyz"), Partition: 3},
				},
			},
			{
				MB:    2,
				Flags: LogCoalesced,
				Vec:   NewSparseVec(VecEntry{Part: 0, Seq: 40}, VecEntry{Part: 5, Seq: 8}),
				Base:  NewSparseVec(VecEntry{Part: 0, Seq: 33}, VecEntry{Part: 5, Seq: 8}),
				Updates: []state.Update{
					{Key: "k0", Value: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Partition: 0},
				},
			},
			{
				MB:    2,
				Flags: LogElided,
				Vec:   NewSparseVec(VecEntry{Part: 1, Seq: 2}),
			},
		},
		Commits: []Commit{{MB: 1, Vec: NewSparseVec(VecEntry{Part: 3, Seq: 16})}},
	}
}

func TestMessageV2RoundTrip(t *testing.T) {
	m := sampleV2Message()
	got, err := DecodeMessage(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("v2 round trip mismatch:\n want %+v\n got  %+v", m, got)
	}
	if got.Logs[0].Updates[0].Flags&state.UpdateDelta == 0 || got.Logs[0].Updates[0].Delta != -5 {
		t.Fatalf("delta update decoded as %+v", got.Logs[0].Updates[0])
	}
	if !got.Logs[1].Coalesced() || len(got.Logs[1].Base) != 2 {
		t.Fatalf("coalesced base lost: %+v", got.Logs[1])
	}
}

func TestMessageV2FullValuesForcesDeltas(t *testing.T) {
	// Control-plane messages (FullValues) must ship the retained full value,
	// not the delta, so receivers without the base value can install it.
	m := &Message{
		Ver:        msgV2,
		FullValues: true,
		Logs: []Log{{
			MB:  0,
			Vec: NewSparseVec(VecEntry{Part: 0, Seq: 1}),
			Updates: []state.Update{{
				Key: "c", Value: []byte{0, 0, 0, 0, 0, 0, 0, 7},
				Partition: 0, Flags: state.UpdateDelta, Delta: 1,
			}},
		}},
	}
	got, err := DecodeMessage(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	u := got.Logs[0].Updates[0]
	if u.Flags&state.UpdateDelta != 0 || !bytes.Equal(u.Value, m.Logs[0].Updates[0].Value) {
		t.Fatalf("full-values update decoded as %+v", u)
	}
}

func TestV2DecodeRejectsTruncation(t *testing.T) {
	enc := sampleV2Message().Encode(nil)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestV2LenEstimateCoversEncoding(t *testing.T) {
	m := sampleV2Message()
	if got := len(m.Encode(nil)); got > m.LenEstimate() {
		t.Fatalf("encoded %d bytes > estimate %d", got, m.LenEstimate())
	}
}

// dietDigest runs a 3-middlebox chain (two shared counters plus a per-flow
// counter, all delta-classified) to quiescence and returns every head
// store's contents, after checking each follower converged to its head.
func dietDigest(t *testing.T, cfg Config, n int) map[string]string {
	t.Helper()
	mbs := []Middlebox{
		&countDeltaMB{countMB{"c0"}},
		&dietFlowMB{"fc:"},
		&countDeltaMB{countMB{"c2"}},
	}
	h := newHarness(t, cfg, mbs, netsim.Config{})
	h.sendPackets(t, n)
	h.collect(t, n, 20*time.Second)
	waitForQuiescence(t, h, uint64(n))

	digest := map[string]string{}
	ring := h.chain.Ring()
	for j := 0; j < 3; j++ {
		head := h.chain.Replica(j).Head()
		hs := head.Store().Snapshot()
		for _, u := range hs {
			digest[u.Key] = string(u.Value)
		}
		for _, i := range ring.Members(j)[1:] {
			fs := h.chain.Replica(i).Follower(uint16(j)).Store().Snapshot()
			if len(fs) != len(hs) {
				t.Fatalf("mb %d follower at %d: %d keys, head has %d", j, i, len(fs), len(hs))
			}
			for k := range hs {
				if hs[k].Key != fs[k].Key || !bytes.Equal(hs[k].Value, fs[k].Value) {
					t.Fatalf("mb %d follower at %d diverged at %q: head=%x follower=%x",
						j, i, hs[k].Key, hs[k].Value, fs[k].Value)
				}
			}
		}
	}
	return digest
}

// TestDietEquivalence is the data path's correctness gate against an
// independent oracle — what a fault-free single instance of each middlebox
// computes from the same n packets: both shared counters read n and every
// per-flow counter reads the number of packets sendPackets gave that source
// port. Delta encoding, coalescing and elided markers must land exactly
// there at per-packet, fixed and adaptive burst sizes, with
// every follower byte-equal to its head (dietDigest).
func TestDietEquivalence(t *testing.T) {
	const n = 300
	counter := func(v uint64) string { return string(binary.BigEndian.AppendUint64(nil, v)) }
	want := map[string]string{"c0": counter(n), "c2": counter(n)}
	perFlow := map[int]uint64{}
	for i := 0; i < n; i++ {
		perFlow[1024+i%1000]++ // sendPackets' source port
	}
	for port, c := range perFlow {
		want[fmt.Sprintf("fc:%d", port)] = counter(c)
	}
	for _, burst := range []int{1, DefaultBurst, 0} {
		t.Run(fmt.Sprintf("2pl/burst%d", burst), func(t *testing.T) {
			cfg := testConfig()
			cfg.Burst = burst
			got := dietDigest(t, cfg, n)
			if len(got) != len(want) {
				t.Fatalf("%d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %q = %x, want %x", k, []byte(got[k]), []byte(v))
				}
			}
		})
	}
}

// TestDietConsistencyUnderLossAndReorder runs the diet path through a lossy,
// reordering fabric: coalesced runs, elided markers, and delta updates must
// repair to head/follower byte equality regardless of which carriers die.
func TestDietConsistencyUnderLossAndReorder(t *testing.T) {
	cfg := testConfig()
	mbs := []Middlebox{
		&countDeltaMB{countMB{"c0"}},
		&dietFlowMB{"fc:"},
		&countDeltaMB{countMB{"c2"}},
	}
	h := newHarness(t, cfg, mbs, netsim.Config{
		Seed: 42,
		DefaultLink: netsim.LinkProfile{
			LossRate:    0.05,
			Latency:     100 * time.Microsecond,
			ReorderRate: 0.2,
		},
	})
	const n = 400
	h.sendPackets(t, n)
	// Count survivors until the chain goes quiet.
	var got int
	deadline := time.After(20 * time.Second)
	idle := 0
	for idle < 400 {
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
		t.Fatalf("only %d of %d packets survived", got, n)
	}
	waitForQuiescence(t, h, 0)
	ring := h.chain.Ring()
	for j := 0; j < 3; j++ {
		head := h.chain.Replica(j).Head()
		hs := head.Store().Snapshot()
		for _, i := range ring.Members(j)[1:] {
			fs := h.chain.Replica(i).Follower(uint16(j)).Store().Snapshot()
			if len(fs) != len(hs) {
				t.Fatalf("mb %d follower at %d: %d keys, head has %d", j, i, len(fs), len(hs))
			}
			for k := range hs {
				if hs[k].Key != fs[k].Key || !bytes.Equal(hs[k].Value, fs[k].Value) {
					t.Fatalf("mb %d follower at %d diverged at %q", j, i, hs[k].Key)
				}
			}
		}
	}
}

// TestDietCrashRecovery crashes a replica mid-chain under the diet and
// verifies recovery: the fetch path must ship full values (a recovering
// store has no delta context) and buffered coalesced logs intact.
func TestDietCrashRecovery(t *testing.T) {
	mbs := []Middlebox{
		&countDeltaMB{countMB{"c0"}},
		&countDeltaMB{countMB{"c1"}},
		&dietFlowMB{"fc:"},
	}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n1 = 150
	h.sendPackets(t, n1)
	h.collect(t, n1, 15*time.Second)
	waitForQuiescence(t, h, n1)

	h.chain.Crash(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nr, err := h.chain.Replace(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := nr.Head().Store().Get("c1")
	if !ok || binary.BigEndian.Uint64(v) != n1 {
		t.Fatalf("recovered delta-classified head counter = %v %v, want %d", v, ok, n1)
	}
	fv, ok := nr.Follower(0).Store().Get("c0")
	if !ok || binary.BigEndian.Uint64(fv) != n1 {
		t.Fatalf("recovered follower state = %v %v", fv, ok)
	}

	const n2 = 100
	h.sendPackets(t, n2)
	h.collect(t, n2, 15*time.Second)
	waitForQuiescence(t, h, n1+n2)
	v2, _ := nr.Head().Store().Get("c1")
	if binary.BigEndian.Uint64(v2) != n1+n2 {
		t.Fatalf("post-recovery counter = %d, want %d", binary.BigEndian.Uint64(v2), n1+n2)
	}
}
