package netsim

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFramePoolAliasing hammers the pooled delivery path under loss,
// reorder, jitter, and latency (the time.AfterFunc scheduled-delivery path)
// plus a parallel zero-profile fast-path sender, while receivers hold each
// frame across a scheduling point and verify its contents twice before
// releasing. A pool bug that hands a frame to a new sender while a receiver
// still reads it shows up as a pattern mismatch, and under -race as a data
// race. Small ingress queues force tail drops so the deliver-side release
// path runs concurrently too. Every frame also goes to a hook node, over the
// same two kinds of link: the hook borrows the sender's own buffer on the
// fast path and a pooled copy on the timer path, and must find either intact
// for as long as its call lasts. And every frame is injected, as from
// outside the fabric, into a node with a pipeline attached: over the zero
// profile the pipeline borrows the injector's buffer, over the shaped link
// the frame takes the queue path and a receiver owns a pooled copy.
func TestFramePoolAliasing(t *testing.T) {
	const (
		framesPerSender = 3000
		frameLen        = 192
	)
	f := New(Config{Seed: 42})
	defer f.Stop()
	a := f.AddNode("a", NodeConfig{})
	c := f.AddNode("c", NodeConfig{})
	b := f.AddNode("b", NodeConfig{QueueCap: 64})
	_ = a
	_ = c
	f.SetLink("a", "b", LinkProfile{
		Latency:     200 * time.Microsecond,
		Jitter:      200 * time.Microsecond,
		LossRate:    0.2,
		ReorderRate: 0.3,
	})
	// c→b keeps the default zero profile: direct enqueue, pooled recycle.

	check := func(frame []byte) bool {
		if len(frame) != frameLen {
			return false
		}
		seq := binary.BigEndian.Uint64(frame)
		fill := byte(seq*31 + 7)
		for _, got := range frame[8:] {
			if got != fill {
				return false
			}
		}
		return true
	}

	var hookGot, hookBad atomic.Int64 // timers call the hook concurrently
	f.AddNode("h", NodeConfig{Deliver: func(first []byte, rest [][]byte) {
		for _, frame := range append([][]byte{first}, rest...) {
			if !check(frame) {
				hookBad.Add(1)
			}
			runtime.Gosched()
			if !check(frame) {
				hookBad.Add(1)
			}
			hookGot.Add(1)
		}
	}})
	f.SetLink("a", "h", LinkProfile{
		Latency:  200 * time.Microsecond,
		Jitter:   200 * time.Microsecond,
		LossRate: 0.2,
	})

	var ingestGot, ingestBad atomic.Int64
	g := f.AddNode("g", NodeConfig{QueueCap: 64})
	g.AttachIngest(func(frames [][]byte) bool {
		for _, frame := range frames {
			if !check(frame) {
				ingestBad.Add(1)
			}
			runtime.Gosched()
			if !check(frame) {
				ingestBad.Add(1)
			}
			ingestGot.Add(1)
		}
		return true
	})
	f.SetLink("a", "g", LinkProfile{
		Latency:  200 * time.Microsecond,
		Jitter:   200 * time.Microsecond,
		LossRate: 0.2,
	})

	var stop sync.WaitGroup
	var got, bad, gotG, badG int
	receive := func(n *Node, got, bad *int) {
		defer stop.Done()
		for {
			in, ok := recvWithin(t, n, 0)
			if !ok {
				return
			}
			if !check(in.Frame) {
				*bad++
			}
			// Hold the frame across a scheduling point and read it again: if
			// the fabric recycled it prematurely, the second read differs.
			runtime.Gosched()
			if !check(in.Frame) {
				*bad++
			}
			*got++
			ReleaseFrame(in.Frame)
		}
	}
	stop.Add(2)
	go receive(b, &got, &bad)
	go receive(g, &gotG, &badG)

	var senders sync.WaitGroup
	for _, src := range []*Node{a, c} {
		senders.Add(1)
		go func(n *Node) {
			defer senders.Done()
			frame := make([]byte, frameLen)
			for i := 0; i < framesPerSender; i++ {
				seq := uint64(i)
				binary.BigEndian.PutUint64(frame, seq)
				fill := byte(seq*31 + 7)
				for j := 8; j < frameLen; j++ {
					frame[j] = fill
				}
				if err := n.Send("b", frame); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				if err := n.Send("h", frame); err != nil {
					t.Errorf("send to hook: %v", err)
					return
				}
				if err := f.Inject(n.ID(), "g", [][]byte{frame}); err != nil {
					t.Errorf("inject: %v", err)
					return
				}
				// Scribble over the sender's buffer immediately: the fabric
				// must have copied the frame, pooled or not.
				for j := range frame {
					frame[j] = 0xFF
				}
			}
		}(src)
	}
	senders.Wait()

	// Wait for scheduled (delayed) deliveries to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sent, delivered, dropped, lost := f.Stats()
		if sent == delivered+dropped+lost && b.QueueLen(0) == 0 && g.QueueLen(0) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deliveries did not drain: sent=%d delivered=%d dropped=%d lost=%d",
				sent, delivered, dropped, lost)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the receivers finish their last frame
	b.Crash()                        // unblock the receivers
	g.Crash()
	stop.Wait()

	if bad+badG != 0 {
		t.Fatalf("%d of %d received frames had corrupted contents (pool aliasing)", bad+badG, got+gotG)
	}
	if got == 0 {
		t.Fatal("receiver saw no frames")
	}
	if n := ingestBad.Load(); n != 0 {
		t.Fatalf("%d of %d frames changed under the attached pipeline while it borrowed them", n, ingestGot.Load())
	}
	// The zero-profile injector's frames all ran the pipeline and none of the
	// shaped link's did: those reached the queue instead.
	if ingestGot.Load() != framesPerSender || gotG == 0 || gotG >= framesPerSender {
		t.Fatalf("attached node: pipeline ran %d frames (want %d), queue delivered %d (want the shaped link's survivors)",
			ingestGot.Load(), framesPerSender, gotG)
	}
	if n := hookBad.Load(); n != 0 {
		t.Fatalf("%d of %d frames changed under the hook while it borrowed them", n, hookGot.Load())
	}
	if hookGot.Load() <= framesPerSender {
		t.Fatalf("hook saw %d frames, want the fast-path sender's %d plus timer deliveries", hookGot.Load(), framesPerSender)
	}
}

// TestAfterFuncDeliveryToCrashedNode exercises the scheduled-delivery
// release path: frames in flight on a latency link when the destination
// crashes must be recycled without panicking or corrupting the pool.
func TestAfterFuncDeliveryToCrashedNode(t *testing.T) {
	f := New(Config{Seed: 1})
	defer f.Stop()
	a := f.AddNode("a", NodeConfig{})
	b := f.AddNode("b", NodeConfig{})
	f.SetLink("a", "b", LinkProfile{Latency: 2 * time.Millisecond})

	frame := make([]byte, 128)
	for i := 0; i < 200; i++ {
		if err := a.Send("b", frame); err != nil {
			t.Fatal(err)
		}
	}
	b.Crash()
	waitResolved(t, f)
}

// waitResolved waits until every frame sent on f has been counted delivered,
// dropped or lost (timer deliveries included) and returns the delivered count.
func waitResolved(t *testing.T, f *Fabric) uint64 {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sent, delivered, dropped, lost := f.Stats()
		if sent == delivered+dropped+lost {
			return delivered
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight frames never resolved: sent=%d delivered=%d dropped=%d lost=%d",
				sent, delivered, dropped, lost)
		}
	}
}
