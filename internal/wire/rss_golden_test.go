package wire

import (
	"hash/fnv"
	"testing"
)

// rssGolden pins the flow→queue mapping. If any entry ever changes, flows
// land on different ingress queues — and different steal partitions —
// across versions, which silently breaks per-flow FIFO guarantees during
// rolling upgrades and invalidates recorded partition layouts. Treat a
// diff here as a protocol-breaking change, not a test to update.
var rssGolden = []struct {
	srcLast byte
	sport   uint16
	hash    uint64
	q4      int // RSSSelector at 4 queues (the pinned workers=4 layout)
	q8      int
	q32     int // workers=4 × 8 flow partitions each
}{
	{1, 1024, 0x839e88ca00092877, 3, 7, 23},
	{2, 1025, 0x43e68adfd9d72b83, 3, 3, 3},
	{3, 1026, 0xf8cbd3f99ed2378f, 3, 7, 15},
	{4, 1027, 0x69eaa4428c65a6fb, 3, 3, 27},
	{5, 5123, 0xf0023aa27e16594a, 2, 2, 10},
}

func goldenFrame(t *testing.T, srcLast byte, sport uint16) []byte {
	t.Helper()
	p, err := BuildUDP(UDPSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		Src: Addr4(10, 0, 0, srcLast), Dst: Addr4(192, 0, 2, 1),
		SrcPort: sport, DstPort: 9000,
		Payload: []byte("golden"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p.Buf
}

// TestRSSGoldenVectors pins RSSHash and the derived queue selections for a
// fixed set of flows, recomputing each hash from the tuple fields with the
// stdlib FNV-1a so a wrong table entry cannot bless a wrong implementation.
func TestRSSGoldenVectors(t *testing.T) {
	for _, g := range rssGolden {
		frame := goldenFrame(t, g.srcLast, g.sport)

		// Independent recomputation: FNV-1a over src addr, dst addr,
		// protocol byte, then src and dst ports, as RSSHash documents.
		h := fnv.New64a()
		h.Write([]byte{10, 0, 0, g.srcLast})               // src
		h.Write([]byte{192, 0, 2, 1})                      // dst
		h.Write([]byte{ProtoUDP})                          // protocol
		h.Write([]byte{byte(g.sport >> 8), byte(g.sport)}) // src port
		h.Write([]byte{9000 >> 8, 9000 & 0xff})            // dst port
		if want := h.Sum64(); want != g.hash {
			t.Fatalf("golden table wrong for flow %d: stdlib says %#x, table %#x",
				g.srcLast, want, g.hash)
		}

		if got := RSSHash(frame); got != g.hash {
			t.Errorf("RSSHash(flow %d) = %#x, want %#x", g.srcLast, got, g.hash)
		}
		if got := RSSSelector(frame, 4); got != g.q4 {
			t.Errorf("flow %d at 4 queues → %d, want %d", g.srcLast, got, g.q4)
		}
		if got := RSSSelector(frame, 8); got != g.q8 {
			t.Errorf("flow %d at 8 queues → %d, want %d", g.srcLast, got, g.q8)
		}
		if got := RSSSelector(frame, 32); got != g.q32 {
			t.Errorf("flow %d at 32 queues → %d, want %d", g.srcLast, got, g.q32)
		}
	}
}

// TestRSSSelectorStrideConsistency pins the arithmetic the stealing
// scheduler's stride home layout relies on: when the partition count is a
// multiple of the worker count, a flow's partition modulo the worker count
// equals the queue it would select with one queue per worker — so every
// partition homes on the worker that owned the flow in the pre-stealing
// layout.
func TestRSSSelectorStrideConsistency(t *testing.T) {
	for _, g := range rssGolden {
		frame := goldenFrame(t, g.srcLast, g.sport)
		for _, workers := range []int{2, 4} {
			for _, factor := range []int{2, 8} {
				p := RSSSelector(frame, workers*factor)
				if got, want := p%workers, RSSSelector(frame, workers); got != want {
					t.Fatalf("flow %d: partition %d of %d homes on worker %d, want %d",
						g.srcLast, p, workers*factor, got, want)
				}
			}
		}
	}
}
