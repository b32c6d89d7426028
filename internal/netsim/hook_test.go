package netsim

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestHookNodeBorrowsSenderFrames pins the delivery-hook contract on the
// zero-profile fast path: the hook runs inside the sender's call, on the
// sender's own buffers (no receiver copy), once per Send with a nil rest and
// once per SendBurst with the whole burst in order.
func TestHookNodeBorrowsSenderFrames(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	type call struct {
		first []byte
		rest  [][]byte
	}
	var calls []call // the hook runs on this goroutine, inside Send/SendBurst
	a := f.AddNode("a", NodeConfig{})
	h := f.AddNode("h", NodeConfig{Deliver: func(first []byte, rest [][]byte) {
		calls = append(calls, call{first, rest})
	}})
	h.RegisterRPC("echo", func(_ NodeID, req []byte) ([]byte, error) { return req, nil })

	one := []byte("single")
	burst := [][]byte{[]byte("b0"), []byte("b1"), []byte("b2")}
	if err := a.Send("h", one); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBurstBlocking("h", burst); err != nil {
		t.Fatal(err)
	}
	if err := f.Inject("outside", "h", burst[:1]); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("hook ran %d times for one Send and two bursts", len(calls))
	}
	if &calls[0].first[0] != &one[0] || calls[0].rest != nil {
		t.Fatal("Send did not hand the hook the sender's frame with a nil rest")
	}
	if &calls[1].first[0] != &burst[0][0] || len(calls[1].rest) != 2 ||
		&calls[1].rest[0][0] != &burst[1][0] || &calls[1].rest[1][0] != &burst[2][0] {
		t.Fatal("SendBurst did not hand the hook the sender's burst in order")
	}
	if len(calls[2].rest) != 0 {
		t.Fatal("a one-frame burst reached the hook with a rest")
	}
	if sent, delivered, dropped, lost := f.Stats(); sent != 5 || delivered != 5 || dropped+lost != 0 {
		t.Fatalf("stats sent=%d delivered=%d dropped=%d lost=%d, want 5 delivered", sent, delivered, dropped, lost)
	}
	// A hook node is still a node for the control plane, and has no queues.
	if resp, err := f.Call(context.Background(), "a", "h", "echo", []byte("x")); err != nil || string(resp) != "x" {
		t.Fatalf("RPC to a hook node = %q, %v", resp, err)
	}
	if d := h.QueueDepths(nil); len(d) != 0 || h.NumQueues() != 0 {
		t.Fatalf("hook node reports queues: %v", d)
	}

	// Crashed: frames drop and are counted, as at a crashed queue node, and
	// the hook is not called again.
	h.Crash()
	if err := a.Send("h", one); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBurst("h", burst); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatal("a crashed node's hook was called")
	}
	if _, delivered, dropped, _ := f.Stats(); delivered != 5 || dropped != 4 {
		t.Fatalf("after crash delivered=%d dropped=%d, want 5 and 4", delivered, dropped)
	}
}

// TestHookNodeShapedLinkReleasesCopy follows the pooled copies a shaped link
// makes for a hook node: the timer hands each to the hook and then releases
// it, exactly once. The frames are sized into a pool class nothing else in
// this package uses, emptied first, so at the end the class must hold each
// buffer the hook ever saw once, and nothing else.
func TestHookNodeShapedLinkReleasesCopy(t *testing.T) {
	const (
		frames   = 300
		frameLen = 5000 // + FrameHeadroom lands in the 16 KiB class
	)
	class := &framePools[3]
	if frameLen+FrameHeadroom <= framePools[2].size || frameLen+FrameHeadroom > class.size {
		t.Fatal("test frame no longer maps to the pool class it inspects")
	}
	drainClass := func() [][]byte {
		var bufs [][]byte
		for {
			select {
			case b := <-class.ch:
				bufs = append(bufs, b)
			default:
				return bufs
			}
		}
	}
	drainClass()

	f := New(Config{Seed: 7})
	defer f.Stop()
	var mu sync.Mutex // timers call the hook from their own goroutines
	seen := make(map[*byte]bool)
	calls := 0
	a := f.AddNode("a", NodeConfig{})
	f.AddNode("h", NodeConfig{Deliver: func(first []byte, rest [][]byte) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		seen[&first[0]] = true
		if len(first) != frameLen || len(rest) != 0 {
			t.Errorf("timer delivery handed the hook %d B and %d more frames", len(first), len(rest))
		}
	}})
	f.SetLink("a", "h", LinkProfile{Latency: 100 * time.Microsecond, LossRate: 0.2})
	frame := make([]byte, frameLen)
	for i := 0; i < frames; i++ {
		if err := a.Send("h", frame); err != nil {
			t.Fatal(err)
		}
	}
	delivered := waitResolved(t, f)
	mu.Lock()
	defer mu.Unlock()
	if uint64(calls) != delivered || calls == 0 || calls == frames {
		t.Fatalf("hook ran %d times, fabric delivered %d of %d", calls, delivered, frames)
	}
	// The last timer counts its delivery just before it releases its copy.
	var pooled [][]byte
	for deadline := time.Now().Add(2 * time.Second); len(pooled) < len(seen) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		pooled = append(pooled, drainClass()...)
	}
	if len(pooled) != len(seen) {
		t.Fatalf("pool holds %d buffers after the run, the hook borrowed %d distinct ones", len(pooled), len(seen))
	}
	for _, b := range pooled {
		p := &b[:1][0]
		if !seen[p] {
			t.Fatal("pool holds a buffer the hook never saw, or holds one twice")
		}
		delete(seen, p)
	}
}
