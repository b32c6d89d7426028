package netsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recvDeadline bounds a test's receive: a frame that never arrives fails
// the test instead of blocking it, and every other result in the package,
// until the package timeout.
const recvDeadline = 10 * time.Second

// recvWithin is n.Recv(q) with a deadline. It reports false once the node
// has crashed, and fails tb when neither a frame nor the crash comes within
// recvDeadline; it does not stop tb, for receivers run on goroutines too.
func recvWithin(tb testing.TB, n *Node, q int) (Inbound, bool) {
	select {
	case in := <-n.queues[q]:
		return in, true
	default:
	}
	t := time.NewTimer(recvDeadline)
	defer t.Stop()
	select {
	case in := <-n.queues[q]:
		return in, true
	case <-n.crashCh:
		return Inbound{}, false
	case <-t.C:
		tb.Errorf("no frame on %s queue %d within %v", n.ID(), q, recvDeadline)
		return Inbound{}, false
	}
}

func twoNodes(t *testing.T, cfg Config) (*Fabric, *Node, *Node) {
	t.Helper()
	f := New(cfg)
	a := f.AddNode("a", NodeConfig{})
	b := f.AddNode("b", NodeConfig{})
	t.Cleanup(f.Stop)
	return f, a, b
}

func TestSendDeliver(t *testing.T) {
	_, a, b := twoNodes(t, Config{})
	if err := a.Send("b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	in, ok := recvWithin(t, b, 0)
	if !ok || string(in.Frame) != "hi" || in.From != "a" {
		t.Fatalf("recv = %+v ok=%v", in, ok)
	}
}

func TestSendCopiesFrame(t *testing.T) {
	_, a, b := twoNodes(t, Config{})
	buf := []byte("orig")
	a.Send("b", buf)
	buf[0] = 'X'
	in, _ := recvWithin(t, b, 0)
	if string(in.Frame) != "orig" {
		t.Fatalf("frame aliases sender buffer: %q", in.Frame)
	}
}

func TestSendUnknownNode(t *testing.T) {
	_, a, _ := twoNodes(t, Config{})
	if err := a.Send("nope", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkLatency(t *testing.T) {
	f, a, b := twoNodes(t, Config{})
	f.SetLink("a", "b", LinkProfile{Latency: 30 * time.Millisecond})
	start := time.Now()
	a.Send("b", []byte("x"))
	_, ok := recvWithin(t, b, 0)
	if !ok {
		t.Fatal("no delivery")
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delivered too fast: %v", d)
	}
}

func TestLinkLoss(t *testing.T) {
	f, a, b := twoNodes(t, Config{Seed: 1})
	f.SetLink("a", "b", LinkProfile{LossRate: 1.0})
	for i := 0; i < 10; i++ {
		a.Send("b", []byte("x"))
	}
	if _, ok := b.TryRecv(0); ok {
		t.Fatal("frame delivered on fully lossy link")
	}
	_, _, _, lost := f.Stats()
	if lost != 10 {
		t.Fatalf("lost = %d", lost)
	}
}

func TestLinkPartialLoss(t *testing.T) {
	f, a, b := twoNodes(t, Config{Seed: 42})
	f.SetLink("a", "b", LinkProfile{LossRate: 0.5})
	const n = 2000
	for i := 0; i < n; i++ {
		a.Send("b", []byte("x"))
	}
	got := 0
	for {
		if _, ok := b.TryRecv(0); !ok {
			break
		}
		got++
	}
	if got < n/3 || got > 2*n/3 {
		t.Fatalf("delivered %d of %d at 50%% loss", got, n)
	}
}

func TestLinkDown(t *testing.T) {
	f, a, b := twoNodes(t, Config{})
	f.SetLinkBoth("a", "b", LinkProfile{Down: true})
	a.Send("b", []byte("x"))
	if _, ok := b.TryRecv(0); ok {
		t.Fatal("delivery across partition")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	f, a, b := twoNodes(t, Config{})
	// 1 Mbps: a 1250-byte frame takes 10ms to serialize.
	f.SetLink("a", "b", LinkProfile{BandwidthBps: 1_000_000})
	frame := make([]byte, 1250)
	start := time.Now()
	for i := 0; i < 3; i++ {
		a.Send("b", frame)
	}
	for i := 0; i < 3; i++ {
		if _, ok := recvWithin(t, b, 0); !ok {
			t.Fatal("missing frame")
		}
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("3 frames at 1Mbps arrived in %v, want ≥ 30ms-ish", d)
	}
}

func TestQueueTailDrop(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	f.AddNode("src", NodeConfig{})
	n := f.AddNode("dst", NodeConfig{QueueCap: 4})
	for i := 0; i < 10; i++ {
		f.Send("src", "dst", []byte{byte(i)})
	}
	got := 0
	for {
		if _, ok := n.TryRecv(0); !ok {
			break
		}
		got++
	}
	if got != 4 {
		t.Fatalf("delivered %d, want 4 (tail drop)", got)
	}
	_, _, dropped, _ := f.Stats()
	if dropped != 6 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestMultiQueueRSS(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	f.AddNode("src", NodeConfig{})
	sel := func(frame []byte, queues int) int { return int(frame[0]) % queues }
	n := f.AddNode("dst", NodeConfig{Queues: 4, Selector: sel})
	for i := 0; i < 8; i++ {
		f.Send("src", "dst", []byte{byte(i)})
	}
	for q := 0; q < 4; q++ {
		for j := 0; j < 2; j++ {
			in, ok := n.TryRecv(q)
			if !ok {
				t.Fatalf("queue %d short", q)
			}
			if int(in.Frame[0])%4 != q {
				t.Fatalf("frame %d on queue %d", in.Frame[0], q)
			}
		}
	}
}

func TestSelectorOutOfRangeFallsBack(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	f.AddNode("src", NodeConfig{})
	n := f.AddNode("dst", NodeConfig{Queues: 2, Selector: func([]byte, int) int { return 99 }})
	f.Send("src", "dst", []byte("x"))
	if _, ok := n.TryRecv(0); !ok {
		t.Fatal("out-of-range selector should fall back to queue 0")
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	f, a, b := twoNodes(t, Config{})
	b.Crash()
	if !b.Crashed() {
		t.Fatal("not crashed")
	}
	a.Send("b", []byte("x"))
	if _, ok := b.TryRecv(0); ok {
		t.Fatal("delivered to crashed node")
	}
	if err := b.Send("a", []byte("x")); !errors.Is(err, ErrNodeCrashed) {
		t.Fatalf("send from crashed node: %v", err)
	}
	_ = f
}

func TestCrashUnblocksReceivers(t *testing.T) {
	_, _, b := twoNodes(t, Config{})
	done := make(chan bool)
	go func() {
		_, ok := recvWithin(t, b, 0)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	b.Crash()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("receiver got ok=true from crashed node")
		}
	case <-time.After(time.Second):
		t.Fatal("receiver still blocked after crash")
	}
}

func TestCrashIdempotent(t *testing.T) {
	_, _, b := twoNodes(t, Config{})
	b.Crash()
	b.Crash() // must not panic on double close
}

func TestConcurrentSendAndCrash(t *testing.T) {
	f, a, b := twoNodes(t, Config{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10000; i++ {
			a.Send("b", []byte("x"))
		}
	}()
	time.Sleep(time.Millisecond)
	b.Crash()
	wg.Wait() // must not panic (send on closed channel is absorbed)
	_ = f
}

func TestRemoveNode(t *testing.T) {
	f, a, _ := twoNodes(t, Config{})
	f.RemoveNode("b")
	if f.Node("b") != nil {
		t.Fatal("node still present")
	}
	if err := a.Send("b", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	f := New(Config{})
	defer f.Stop()
	f.AddNode("x", NodeConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode should panic")
		}
	}()
	f.AddNode("x", NodeConfig{})
}

func TestFabricStop(t *testing.T) {
	f, a, _ := twoNodes(t, Config{})
	f.Stop()
	if err := a.Send("b", nil); !errors.Is(err, ErrNodeCrashed) && !errors.Is(err, ErrFabricDown) {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCBasic(t *testing.T) {
	f, _, b := twoNodes(t, Config{})
	b.RegisterRPC("echo", func(from NodeID, req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	resp, err := f.Call(context.Background(), "a", "b", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestRPCHandlerError(t *testing.T) {
	f, _, b := twoNodes(t, Config{})
	wantErr := errors.New("boom")
	b.RegisterRPC("fail", func(NodeID, []byte) ([]byte, error) { return nil, wantErr })
	_, err := f.Call(context.Background(), "a", "b", "fail", nil)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCNoHandler(t *testing.T) {
	f, _, _ := twoNodes(t, Config{})
	_, err := f.Call(context.Background(), "a", "b", "none", nil)
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCToCrashedNode(t *testing.T) {
	f, _, b := twoNodes(t, Config{})
	b.RegisterRPC("x", func(NodeID, []byte) ([]byte, error) { return nil, nil })
	b.Crash()
	_, err := f.Call(context.Background(), "a", "b", "x", nil)
	if !errors.Is(err, ErrNodeCrashed) {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCLatencyRoundTrip(t *testing.T) {
	f, _, b := twoNodes(t, Config{})
	f.SetLinkBoth("a", "b", LinkProfile{Latency: 20 * time.Millisecond})
	b.RegisterRPC("x", func(NodeID, []byte) ([]byte, error) { return []byte("ok"), nil })
	start := time.Now()
	if _, err := f.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Fatalf("RPC RTT = %v, want ≥ ~40ms", d)
	}
}

func TestRPCTimeout(t *testing.T) {
	f, _, b := twoNodes(t, Config{})
	b.RegisterRPC("slow", func(NodeID, []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := f.Call(ctx, "a", "b", "slow", nil)
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCAcrossPartition(t *testing.T) {
	f, _, b := twoNodes(t, Config{})
	b.RegisterRPC("x", func(NodeID, []byte) ([]byte, error) { return nil, nil })
	f.SetLink("a", "b", LinkProfile{Down: true})
	_, err := f.Call(context.Background(), "a", "b", "x", nil)
	if err == nil {
		t.Fatal("RPC succeeded across partition")
	}
}

func TestReorderingHappens(t *testing.T) {
	f, a, b := twoNodes(t, Config{Seed: 3})
	f.SetLink("a", "b", LinkProfile{Latency: 2 * time.Millisecond, ReorderRate: 0.3})
	const n = 200
	for i := 0; i < n; i++ {
		a.Send("b", []byte(fmt.Sprintf("%03d", i)))
	}
	var prev string
	reordered := false
	for i := 0; i < n; i++ {
		in, ok := recvWithin(t, b, 0)
		if !ok {
			t.Fatalf("missing frame %d", i)
		}
		if prev != "" && string(in.Frame) < prev {
			reordered = true
		}
		prev = string(in.Frame)
	}
	if !reordered {
		t.Fatal("no reordering observed at 30% reorder rate")
	}
}

func TestStatsAccounting(t *testing.T) {
	f, a, b := twoNodes(t, Config{})
	a.Send("b", []byte("x"))
	recvWithin(t, b, 0)
	sent, delivered, dropped, lost := f.Stats()
	if sent != 1 || delivered != 1 || dropped != 0 || lost != 0 {
		t.Fatalf("stats = %d %d %d %d", sent, delivered, dropped, lost)
	}
}

// TestSendRecvFastPathAllocs gates BenchmarkSendRecvFastPath's hop — a
// pooled copy in, received and released — at 0 allocations per frame.
func TestSendRecvFastPathAllocs(t *testing.T) {
	_, a, b := twoNodes(t, Config{})
	frame := make([]byte, 256)
	hop := func() {
		if err := a.Send("b", frame); err != nil {
			t.Fatal(err)
		}
		in, ok := b.TryRecv(0)
		if !ok {
			t.Fatal("frame not delivered")
		}
		ReleaseFrame(in.Frame)
	}
	hop() // fill the route cache and the frame pool
	if n := testing.AllocsPerRun(1000, hop); n != 0 {
		t.Fatalf("send/recv allocates %v times per frame, want 0", n)
	}
}

func BenchmarkSendRecvFastPath(b *testing.B) {
	f := New(Config{})
	defer f.Stop()
	src := f.AddNode("src", NodeConfig{QueueCap: 4096})
	dst := f.AddNode("dst", NodeConfig{QueueCap: 4096})
	_ = src
	frame := make([]byte, 256)
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			in, ok := recvWithin(b, dst, 0)
			if !ok {
				return
			}
			ReleaseFrame(in.Frame)
		}
		close(done)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for dst.QueueLen(0) >= 4000 { // avoid tail drops; the bench needs every frame
			runtime.Gosched()
		}
		if err := src.Send("dst", frame); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

func TestLinkMTU(t *testing.T) {
	f, a, b := twoNodes(t, Config{})
	f.SetLink("a", "b", LinkProfile{MTU: 100})
	a.Send("b", make([]byte, 101))
	if _, ok := b.TryRecv(0); ok {
		t.Fatal("oversized frame delivered")
	}
	a.Send("b", make([]byte, 100))
	if _, ok := b.TryRecv(0); !ok {
		t.Fatal("MTU-sized frame dropped")
	}
}
