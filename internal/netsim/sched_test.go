package netsim

import (
	"fmt"
	"testing"
)

func TestBurstControllerFixed(t *testing.T) {
	c := NewBurstController(32)
	if c.Size() != 32 {
		t.Fatalf("fixed controller: size=%d, want 32", c.Size())
	}
	c.Observe(32, 100)
	c.Observe(0, 0)
	if c.Size() != 32 {
		t.Fatalf("fixed controller moved to %d after Observe", c.Size())
	}
}

// TestBurstControllerAdaptive pins the grow/decay rules of DESIGN.md §9:
// ×2 growth while the budget fills or backlog remains, ÷2 decay on a short
// drain with an empty queue, clamped to [1, DefaultMaxBurst].
func TestBurstControllerAdaptive(t *testing.T) {
	c := NewBurstController(0)
	if !c.adaptive || c.Size() != 1 {
		t.Fatalf("adaptive controller: size=%d adaptive=%v", c.Size(), c.adaptive)
	}
	const top = DefaultMaxBurst
	steps := []struct {
		drained, backlog, want int
	}{
		{1, 0, 2},             // budget filled → grow
		{2, 0, 4},             // budget filled → grow
		{1, 3, 8},             // short drain but backlog remains → grow
		{8, 0, 16},            // budget filled → grow
		{0, 9, 32},            // backlog → grow
		{32, 0, 64},           // grow
		{64, 0, 128},          // grow
		{1, 1, top},           // backlog → grow to the cap
		{top, top, top},       // clamped at the cap
		{3, 0, top / 2},       // short drain, empty queue → decay
		{top / 2, 0, top},     // budget filled → grow back
		{0, 0, top / 2},       // empty drain → decay
		{top / 4, 0, top / 4}, // decay again
	}
	for i, s := range steps {
		c.Observe(s.drained, s.backlog)
		if c.Size() != s.want {
			t.Fatalf("step %d: Observe(%d, %d) → size %d, want %d",
				i, s.drained, s.backlog, c.Size(), s.want)
		}
	}
	for i := 0; i < 16; i++ {
		c.Observe(0, 0)
	}
	if c.Size() != 1 {
		t.Fatalf("idle controller settled at %d, want 1", c.Size())
	}
}

func TestBurstControllerDefaultMax(t *testing.T) {
	if MaxBurst(0) != DefaultMaxBurst || MaxBurst(32) != 32 {
		t.Fatalf("MaxBurst(0), MaxBurst(32) = %d, %d, want %d, 32", MaxBurst(0), MaxBurst(32), DefaultMaxBurst)
	}
}

// schedNode builds a fabric node with q queues whose selector reads the
// queue index from the frame's first byte.
func schedNode(t *testing.T, q, depth int) (*Fabric, *Node) {
	t.Helper()
	f := New(Config{})
	t.Cleanup(f.Stop)
	n := f.AddNode("sut", NodeConfig{
		Queues:   q,
		QueueCap: depth,
		Selector: func(frame []byte, queues int) int { return int(frame[0]) % queues },
	})
	return f, n
}

// schedFrame encodes (queue, seq) into a frame the schedNode selector and
// the tests can both read back.
func schedFrame(q, seq int) []byte {
	return []byte{byte(q), byte(seq >> 8), byte(seq)}
}

// TestPickQueueClamp pins the out-of-range selector contract: the frame
// lands on queue 0 and the clamp counter records the misconfiguration
// instead of letting it pass silently.
func TestPickQueueClamp(t *testing.T) {
	f := New(Config{})
	t.Cleanup(f.Stop)
	n := f.AddNode("sut", NodeConfig{
		Queues:   4,
		QueueCap: 8,
		Selector: func(frame []byte, queues int) int { return int(int8(frame[0])) },
	})
	for _, b := range []byte{200, 0x80, 2} { // 200 → -56, 0x80 → -128, 2 in range
		if !n.enqueue("gen", []byte{b}, false) {
			t.Fatal("enqueue failed")
		}
	}
	if got := n.Clamps(); got != 2 {
		t.Fatalf("Clamps() = %d, want 2", got)
	}
	if n.QueueLen(0) != 2 || n.QueueLen(2) != 1 {
		t.Fatalf("queue depths 0:%d 2:%d, want 2 and 1", n.QueueLen(0), n.QueueLen(2))
	}
}

// TestQueueDepths covers the observability dump used by ftcd's shutdown
// logging.
func TestQueueDepths(t *testing.T) {
	_, n := schedNode(t, 3, 8)
	n.enqueue("gen", schedFrame(1, 0), false)
	n.enqueue("gen", schedFrame(1, 1), false)
	n.enqueue("gen", schedFrame(2, 0), false)
	d := n.QueueDepths(nil)
	want := []int{0, 2, 1}
	if fmt.Sprint(d) != fmt.Sprint(want) {
		t.Fatalf("QueueDepths = %v, want %v", d, want)
	}
}
