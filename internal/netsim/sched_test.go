package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

func TestQueueSchedHomeLayout(t *testing.T) {
	_, n := schedNode(t, 8, 16)
	for w := 0; w < 4; w++ {
		s := n.NewQueueSched(w, 4)
		want := []int{w, w + 4}
		if len(s.home) != len(want) {
			t.Fatalf("worker %d: home %v, want %v", w, s.home, want)
		}
		for i := range want {
			if s.home[i] != want[i] {
				t.Fatalf("worker %d: home %v, want %v", w, s.home, want)
			}
		}
	}
	// Queues == Workers degenerates to the pre-stealing 1:1 pinning.
	s := n.NewQueueSched(3, 8)
	if len(s.home) != 1 || s.home[0] != 3 {
		t.Fatalf("1:1 layout: home %v, want [3]", s.home)
	}
}

// TestQueueSchedSteal backlogs only a sibling's home queue and verifies the
// idle worker claims it and reports the claim as a steal.
func TestQueueSchedSteal(t *testing.T) {
	_, n := schedNode(t, 4, 16)
	for seq := 0; seq < 3; seq++ {
		if !n.enqueue("gen", schedFrame(1, seq), false) {
			t.Fatal("enqueue failed")
		}
	}
	s0 := n.NewQueueSched(0, 2)
	q, stolen := s0.Acquire()
	if q != 1 || !stolen {
		t.Fatalf("Acquire = (%d, %v), want queue 1 stolen", q, stolen)
	}
	// While worker 0 holds the claim, its sibling must not acquire queue 1
	// even though frames remain; with every other queue empty it must sleep
	// until the doorbell rings for new work on its own home queue.
	s1 := n.NewQueueSched(1, 2)
	got := make(chan int, 1)
	go func() {
		q, _ := s1.Acquire()
		got <- q
	}()
	select {
	case q := <-got:
		t.Fatalf("sibling acquired queue %d while claim was held", q)
	case <-time.After(20 * time.Millisecond):
	}
	if !n.enqueue("gen", schedFrame(3, 0), false) {
		t.Fatal("enqueue failed")
	}
	select {
	case q := <-got:
		if q != 3 {
			t.Fatalf("sibling woke on queue %d, want 3", q)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("doorbell never woke the sleeping worker")
	}
	s1.Release(3)

	buf := make([]Inbound, 8)
	if cnt := n.DrainClaimed(q, buf); cnt != 3 {
		t.Fatalf("drained %d frames, want 3", cnt)
	}
	s0.Release(1)
}

// TestQueueSchedReleaseRings verifies Release with leftover backlog rings
// the doorbell so a sleeping sibling picks the queue back up.
func TestQueueSchedReleaseRings(t *testing.T) {
	_, n := schedNode(t, 2, 16)
	for seq := 0; seq < 4; seq++ {
		if !n.enqueue("gen", schedFrame(0, seq), false) {
			t.Fatal("enqueue failed")
		}
	}
	s0 := n.NewQueueSched(0, 2)
	q, _ := s0.Acquire()
	if q != 0 {
		t.Fatalf("acquired %d, want 0", q)
	}
	// Drain the doorbell so the sibling genuinely sleeps, then park it.
	for {
		select {
		case <-n.bell:
			continue
		default:
		}
		break
	}
	s1 := n.NewQueueSched(1, 2)
	got := make(chan int, 1)
	go func() {
		q, stolen := s1.Acquire()
		if !stolen {
			got <- -2
			return
		}
		got <- q
	}()
	time.Sleep(10 * time.Millisecond)
	// Partial drain, then release with backlog: the sibling must wake.
	buf := make([]Inbound, 2)
	if cnt := n.DrainClaimed(0, buf); cnt != 2 {
		t.Fatalf("drained %d, want 2", cnt)
	}
	s0.Release(0)
	select {
	case q := <-got:
		if q != 0 {
			t.Fatalf("sibling woke with queue %d, want steal of queue 0", q)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backlogged Release never woke the sleeping worker")
	}
}

func TestQueueSchedCrashUnblocks(t *testing.T) {
	_, n := schedNode(t, 2, 16)
	s := n.NewQueueSched(0, 2)
	got := make(chan int, 1)
	go func() {
		q, _ := s.Acquire()
		got <- q
	}()
	time.Sleep(5 * time.Millisecond)
	n.Crash()
	select {
	case q := <-got:
		if q != -1 {
			t.Fatalf("Acquire on crashed node returned %d, want -1", q)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash did not unblock Acquire")
	}
}

// TestQueueSchedPerQueueFIFO hammers a node with several workers stealing
// from each other and verifies every queue's frames are observed in enqueue
// order — the ordering invariant that claim-based stealing must preserve.
// Run under -race this also exercises the claim flags and doorbell.
func TestQueueSchedPerQueueFIFO(t *testing.T) {
	const queues, workers, perQueue = 8, 3, 400
	_, n := schedNode(t, queues, perQueue+1)
	var mu sync.Mutex
	seen := make([][]int, queues)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := n.NewQueueSched(w, workers)
			ctl := NewBurstController(0)
			buf := make([]Inbound, MaxBurst(0))
			for {
				q, _ := s.Acquire()
				if q < 0 {
					return
				}
				cnt := n.DrainClaimed(q, buf[:ctl.Size()])
				mu.Lock()
				for i := 0; i < cnt; i++ {
					fr := buf[i].Frame
					seen[q] = append(seen[q], int(fr[1])<<8|int(fr[2]))
				}
				mu.Unlock()
				backlog := n.QueueLen(q)
				s.Release(q)
				ctl.Observe(cnt, backlog)
			}
		}(w)
	}

	for seq := 0; seq < perQueue; seq++ {
		for q := 0; q < queues; q++ {
			for !n.enqueue("gen", schedFrame(q, seq), false) {
				time.Sleep(time.Microsecond)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		total := 0
		for q := range seen {
			total += len(seen[q])
		}
		mu.Unlock()
		if total == queues*perQueue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained %d of %d frames", total, queues*perQueue)
		}
		time.Sleep(time.Millisecond)
	}
	n.Crash()
	wg.Wait()

	for q := 0; q < queues; q++ {
		if len(seen[q]) != perQueue {
			t.Fatalf("queue %d: %d frames, want %d", q, len(seen[q]), perQueue)
		}
		for i, got := range seen[q] {
			if got != i {
				t.Fatalf("queue %d: position %d holds seq %d — FIFO violated", q, i, got)
			}
		}
	}
}

// TestAcquireReturnsNonEmpty hammers the check-then-CAS window in Acquire:
// with more workers than queues and burst-1 drains, claims churn fast
// enough that a worker routinely CASes a queue a sibling drained empty an
// instant earlier. Acquire must re-verify depth under the claim and retry,
// so on a live node DrainClaimed straight after Acquire never returns 0 —
// the invariant runStealing-style callers rely on to tell "nothing left"
// apart from "node crashed".
func TestAcquireReturnsNonEmpty(t *testing.T) {
	const queues, workers, total = 2, 4, 4000
	_, n := schedNode(t, queues, 64)

	var drained, emptyClaims atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := n.NewQueueSched(w, workers)
			buf := make([]Inbound, 1)
			for {
				q, _ := s.Acquire()
				if q < 0 {
					return
				}
				cnt := n.DrainClaimed(q, buf)
				if cnt == 0 && !n.crashed.Load() {
					emptyClaims.Add(1)
				}
				drained.Add(int64(cnt))
				s.Release(q)
			}
		}(w)
	}

	for seq := 0; seq < total; seq++ {
		for !n.enqueue("gen", schedFrame(seq%queues, seq), false) {
			time.Sleep(time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for drained.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("drained %d of %d frames", drained.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	n.Crash()
	wg.Wait()
	if got := emptyClaims.Load(); got > 0 {
		t.Fatalf("Acquire handed out an empty queue %d times on a live node", got)
	}
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
