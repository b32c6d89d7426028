package netsim

import (
	"testing"
	"time"
)

// TestInjectRunsAttachedPipeline pins the contract of AttachIngest: a burst
// injected from outside the fabric runs the attached function on the
// injecting goroutine with the injector's own frames, nothing is queued, and
// a refusing or crashed node drops and counts the burst. Sends from a fabric
// node never take that path: between simulated servers the queue is the NIC
// ring.
func TestInjectRunsAttachedPipeline(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	a := f.AddNode("a", NodeConfig{})
	n := f.AddNode("n", NodeConfig{})
	burst := [][]byte{{1}, {2, 2}, {3, 3, 3}}
	// Written by the attached function and read below with no lock: under
	// -race that holds only while the function runs on this goroutine.
	calls, accept := 0, true
	var saw [][]byte
	n.AttachIngest(func(frames [][]byte) bool {
		calls++
		saw = frames
		return accept
	})

	if err := f.Inject("outside", "n", burst); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(saw) != len(burst) || &saw[2][0] != &burst[2][0] {
		t.Fatalf("pipeline ran %d times on %d frames; want once, on the injector's own buffers", calls, len(saw))
	}
	if err := f.Send("outside", "n", burst[0]); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || len(saw) != 1 || &saw[0][0] != &burst[0][0] {
		t.Fatalf("a single Send did not run the pipeline on the caller's frame (calls=%d)", calls)
	}
	if n.QueueLen(0) != 0 {
		t.Fatalf("%d frames queued beside the pipeline", n.QueueLen(0))
	}
	if sent, delivered, dropped, _ := f.Stats(); sent != 4 || delivered != 4 || dropped != 0 {
		t.Fatalf("sent=%d delivered=%d dropped=%d, want 4 4 0", sent, delivered, dropped)
	}

	accept = false
	if err := f.Inject("outside", "n", burst); err != nil {
		t.Fatal(err)
	}
	if _, delivered, dropped, _ := f.Stats(); calls != 3 || delivered != 4 || dropped != 3 {
		t.Fatalf("refused burst: calls=%d delivered=%d dropped=%d, want 3 4 3", calls, delivered, dropped)
	}

	// An in-fabric sender gets the queues, attached pipeline or not.
	if err := a.SendBurst("n", burst); err != nil {
		t.Fatal(err)
	}
	if calls != 3 || n.QueueLen(0) != len(burst) {
		t.Fatalf("node-to-node burst: pipeline calls=%d queued=%d, want 3 and %d", calls, n.QueueLen(0), len(burst))
	}
	in, _ := recvWithin(t, n, 0)
	if &in.Frame[0] == &burst[0][0] {
		t.Fatal("queue path handed out the sender's own buffer")
	}

	n.Crash()
	if err := f.Inject("outside", "n", burst); err != nil {
		t.Fatal(err)
	}
	if _, _, dropped, _ := f.Stats(); calls != 3 || dropped != 6 {
		t.Fatalf("crashed node: pipeline calls=%d dropped=%d, want 3 and 6", calls, dropped)
	}
}

// TestInjectFallsBackToQueues shows the two other ways onto the queue path:
// a shaped or lossy link to a node with a pipeline attached, and a node with
// nothing attached. Both copy frame by frame into pooled buffers the
// receiver owns. The frames are sized into a pool class nothing else in this
// package uses, emptied first, so at the end the class holds exactly the
// buffers the receivers released (as TestHookNodeShapedLinkReleasesCopy
// counts for the hook node).
func TestInjectFallsBackToQueues(t *testing.T) {
	const (
		frames   = 150  // 3 × frames stays under the class capacity (512)
		frameLen = 5000 // + FrameHeadroom lands in the 16 KiB class
	)
	class := &framePools[3]
	drainClass := func() (bufs [][]byte) {
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

	f := New(Config{Seed: 3})
	defer f.Stop()
	attached := f.AddNode("attached", NodeConfig{QueueCap: 2 * frames})
	attached.AttachIngest(func([][]byte) bool {
		t.Error("pipeline ran for a frame that crossed a shaped or lossy link")
		return true
	})
	plain := f.AddNode("plain", NodeConfig{QueueCap: frames})
	f.SetLink("shaped", "attached", LinkProfile{Latency: 100 * time.Microsecond})
	f.SetLink("lossy", "attached", LinkProfile{LossRate: 0.2})

	burst := make([][]byte, frames)
	for i := range burst {
		burst[i] = make([]byte, frameLen)
	}
	for _, inj := range []struct{ src, dst NodeID }{
		{"shaped", "attached"}, {"lossy", "attached"}, {"outside", "plain"},
	} {
		if err := f.Inject(inj.src, inj.dst, burst); err != nil {
			t.Fatal(err)
		}
	}
	delivered := waitResolved(t, f)
	if _, _, _, lost := f.Stats(); delivered != 3*frames-lost || lost == 0 || lost >= frames {
		t.Fatalf("delivered %d, lost %d of %d: want only the lossy link to lose, and only some", delivered, lost, 3*frames)
	}

	seen := make(map[*byte]bool)
	for _, n := range []*Node{attached, plain} {
		for {
			in, ok := n.TryRecv(0)
			if !ok {
				break
			}
			if len(in.Frame) != frameLen || seen[&in.Frame[0]] {
				t.Fatalf("queue handed out a %d B frame, or one buffer twice", len(in.Frame))
			}
			seen[&in.Frame[0]] = true
			ReleaseFrame(in.Frame)
		}
	}
	if uint64(len(seen)) != delivered {
		t.Fatalf("queues held %d frames, fabric delivered %d", len(seen), delivered)
	}
	pooled := drainClass()
	if len(pooled) != len(seen) {
		t.Fatalf("pool holds %d buffers after the run, receivers released %d", len(pooled), len(seen))
	}
	for _, b := range pooled {
		if !seen[&b[:1][0]] {
			t.Fatal("pool holds a buffer no receiver released")
		}
	}
}
