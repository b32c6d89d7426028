package netsim

import (
	"encoding/binary"
	"testing"
	"time"
)

// TestRecvBurstDrainsQueued checks the one-blocking-recv + nonblocking-drain
// contract: everything already queued arrives in one call, order preserved.
func TestRecvBurstDrainsQueued(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	a := f.AddNode("a", NodeConfig{})
	b := f.AddNode("b", NodeConfig{})
	_ = a

	frame := make([]byte, 64)
	for i := 0; i < 10; i++ {
		binary.BigEndian.PutUint64(frame, uint64(i))
		if err := a.Send("b", frame); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]Inbound, 32)
	got := b.RecvBurst(0, buf)
	if got != 10 {
		t.Fatalf("RecvBurst drained %d frames, want 10", got)
	}
	for i := 0; i < got; i++ {
		if seq := binary.BigEndian.Uint64(buf[i].Frame); seq != uint64(i) {
			t.Fatalf("frame %d out of order: seq %d", i, seq)
		}
		if buf[i].From != "a" {
			t.Fatalf("frame %d from %q, want a", i, buf[i].From)
		}
		ReleaseFrame(buf[i].Frame)
	}

	// A second call with an empty queue must block until a frame arrives.
	done := make(chan int, 1)
	go func() { done <- b.RecvBurst(0, buf) }()
	select {
	case n := <-done:
		t.Fatalf("RecvBurst returned %d on an empty queue", n)
	case <-time.After(10 * time.Millisecond):
	}
	if err := a.Send("b", frame); err != nil {
		t.Fatal(err)
	}
	if n := <-done; n != 1 {
		t.Fatalf("RecvBurst woke with %d frames, want 1", n)
	}
	ReleaseFrame(buf[0].Frame)
}

// TestRecvBurstCapped checks that a burst never exceeds the caller's buffer
// and leaves the remainder queued.
func TestRecvBurstCapped(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	a := f.AddNode("a", NodeConfig{})
	b := f.AddNode("b", NodeConfig{})
	frame := make([]byte, 64)
	for i := 0; i < 10; i++ {
		if err := a.Send("b", frame); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]Inbound, 4)
	if n := b.RecvBurst(0, buf); n != 4 {
		t.Fatalf("RecvBurst returned %d, want 4", n)
	}
	if got := b.QueueLen(0); got != 6 {
		t.Fatalf("queue depth %d after capped burst, want 6", got)
	}
}

// TestRecvBurstCrash checks that a crashed node's RecvBurst returns 0, both
// while blocked and on subsequent calls, and that a node which crashes with
// a backlog hands out none of it: fail-stop loses the queued frames.
func TestRecvBurstCrash(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	b := f.AddNode("b", NodeConfig{})
	done := make(chan int, 1)
	buf := make([]Inbound, 8)
	go func() { done <- b.RecvBurst(0, buf) }()
	time.Sleep(5 * time.Millisecond)
	b.Crash()
	if n := <-done; n != 0 {
		t.Fatalf("RecvBurst on crashed node returned %d", n)
	}
	if n := b.RecvBurst(0, buf); n != 0 {
		t.Fatalf("RecvBurst after crash returned %d", n)
	}

	c := f.AddNode("c", NodeConfig{})
	for i := 0; i < 8; i++ {
		if !c.enqueue("a", []byte{byte(i)}, false) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	c.Crash()
	for i := 0; i < 8; i++ {
		if n := c.RecvBurst(0, buf[:1]); n != 0 {
			t.Fatalf("call %d: RecvBurst on a crashed node with a backlog returned %d", i, n)
		}
	}
	if _, ok := c.Recv(0); ok {
		t.Fatal("Recv on a crashed node with a backlog returned a frame")
	}
}

// TestSendBurstTailDrop checks per-frame tail-drop semantics: a burst into a
// nearly full queue delivers what fits and drops the rest, exactly like a
// loop over Send.
func TestSendBurstTailDrop(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	a := f.AddNode("a", NodeConfig{})
	b := f.AddNode("b", NodeConfig{QueueCap: 4})
	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = make([]byte, 64)
		binary.BigEndian.PutUint64(frames[i], uint64(i))
	}
	if err := a.SendBurst("b", frames); err != nil {
		t.Fatal(err)
	}
	if got := b.QueueLen(0); got != 4 {
		t.Fatalf("queue holds %d frames, want 4", got)
	}
	_, _, dropped, _ := f.Stats()
	if dropped != 6 {
		t.Fatalf("dropped %d frames, want 6", dropped)
	}
	// The frames that made it are the first four, in order.
	buf := make([]Inbound, 8)
	n := b.RecvBurst(0, buf)
	if n != 4 {
		t.Fatalf("drained %d, want 4", n)
	}
	for i := 0; i < n; i++ {
		if seq := binary.BigEndian.Uint64(buf[i].Frame); seq != uint64(i) {
			t.Fatalf("frame %d has seq %d", i, seq)
		}
		ReleaseFrame(buf[i].Frame)
	}
}

// TestSendBurstShapedLink checks that bursts on a lossy link fall back to
// the per-frame path and consume the link rng in per-frame order: a burst
// and a loop of single sends over identically seeded fabrics lose the same
// frames.
func TestSendBurstShapedLink(t *testing.T) {
	run := func(burst bool) []uint64 {
		f := New(Config{Seed: 7})
		defer f.Stop()
		a := f.AddNode("a", NodeConfig{})
		b := f.AddNode("b", NodeConfig{})
		f.SetLink("a", "b", LinkProfile{LossRate: 0.3})
		frames := make([][]byte, 64)
		for i := range frames {
			frames[i] = make([]byte, 64)
			binary.BigEndian.PutUint64(frames[i], uint64(i))
		}
		if burst {
			if err := a.SendBurst("b", frames); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, fr := range frames {
				if err := a.Send("b", fr); err != nil {
					t.Fatal(err)
				}
			}
		}
		var got []uint64
		buf := make([]Inbound, 64)
		for b.QueueLen(0) > 0 {
			n := b.RecvBurst(0, buf)
			for i := 0; i < n; i++ {
				got = append(got, binary.BigEndian.Uint64(buf[i].Frame))
				ReleaseFrame(buf[i].Frame)
			}
		}
		return got
	}
	single, burst := run(false), run(true)
	if len(single) != len(burst) {
		t.Fatalf("loss diverged: %d delivered single vs %d burst", len(single), len(burst))
	}
	for i := range single {
		if single[i] != burst[i] {
			t.Fatalf("delivery %d: seq %d single vs %d burst", i, single[i], burst[i])
		}
	}
	if len(single) == 64 || len(single) == 0 {
		t.Fatalf("loss link delivered %d of 64; profile not applied", len(single))
	}
}

// TestBurstPathAllocs pins the burst drain/flush paths at zero steady-state
// allocations: RecvBurst reuses the caller's buffer and SendBurst's
// deliveries come from the frame pool.
func TestBurstPathAllocs(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	a := f.AddNode("a", NodeConfig{})
	b := f.AddNode("b", NodeConfig{QueueCap: 256})
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = make([]byte, 128)
	}
	buf := make([]Inbound, 32)
	hop := func() {
		if err := a.SendBurstBlocking("b", frames); err != nil {
			t.Fatal(err)
		}
		n := b.RecvBurst(0, buf)
		for i := 0; i < n; i++ {
			ReleaseFrame(buf[i].Frame)
		}
	}
	for i := 0; i < 100; i++ {
		hop() // warm the route cache and frame pool
	}
	if n := testing.AllocsPerRun(200, hop); n > 0 {
		t.Fatalf("burst send+drain allocates %.2f times per burst, want 0", n)
	}
}

// TestPickQueueClamps checks that full and enqueue agree on the clamped
// queue for an out-of-range selector result.
func TestPickQueueClamps(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	f.AddNode("a", NodeConfig{})
	bad := func(frame []byte, queues int) int { return queues + 3 }
	b := f.AddNode("b", NodeConfig{Queues: 4, QueueCap: 2, Selector: bad})
	frame := make([]byte, 32)
	if got := b.pickQueue(frame); got != 0 {
		t.Fatalf("pickQueue clamped to %d, want 0", got)
	}
	a := f.Node("a")
	for i := 0; i < 2; i++ {
		if err := a.Send("b", frame); err != nil {
			t.Fatal(err)
		}
	}
	if !b.full(frame) {
		t.Fatal("full disagrees with enqueue about the clamped queue")
	}
	if b.QueueLen(0) != 2 {
		t.Fatalf("frames landed on queue %d, want 0", 0)
	}
}
