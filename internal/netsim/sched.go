package netsim

// Scheduling layer for queue workers (DESIGN.md §9): claim-based work
// stealing over the node's ingress queues plus a NAPI-style adaptive burst
// controller. The node's queues double as steal-granularity flow
// partitions — the RSS selector hashes a flow to exactly one queue, and a
// worker that has claimed a queue holds it exclusively from drain through
// flush, so per-flow FIFO order survives arbitrary claim migrations
// between workers.

// DefaultMaxBurst caps the adaptive burst controller's growth: under
// sustained backlog a worker drains up to this many frames per claim.
const DefaultMaxBurst = 256

// MaxBurst is the largest burst a layer configured with burst ever handles:
// burst itself when fixed (> 0), else the adaptive controller's cap. Receive
// buffers are sized with it.
func MaxBurst(burst int) int {
	if burst > 0 {
		return burst
	}
	return DefaultMaxBurst
}

// BurstController sizes a worker's drain budget NAPI-style. With a fixed
// burst (fixed > 0) it always answers that size; in adaptive mode it
// starts at 1 so an idle pipeline keeps per-packet latency, doubles
// toward DefaultMaxBurst while drains fill the budget or leave backlog
// behind, and halves toward 1 when a drain comes up short with nothing
// left queued. A controller belongs to one worker goroutine; it is not
// thread-safe.
type BurstController struct {
	cur      int
	adaptive bool
}

// NewBurstController returns a controller answering the fixed burst size
// when fixed > 0, or an adaptive controller when fixed is 0.
func NewBurstController(fixed int) *BurstController {
	if fixed > 0 {
		return &BurstController{cur: fixed}
	}
	return &BurstController{cur: 1, adaptive: true}
}

// Size returns the current drain budget in frames (≥ 1).
func (c *BurstController) Size() int { return c.cur }

// Observe feeds back one drain's outcome: drained frames were received
// against the current budget, and backlog frames remained queued
// afterwards. Growth (×2 toward DefaultMaxBurst) triggers when the budget
// filled or backlog remains — the queue is running hot and a bigger burst
// buys amortization; decay (÷2 toward 1) triggers when the drain came up
// short of the budget with the queue empty — load is light and small
// bursts keep latency low.
func (c *BurstController) Observe(drained, backlog int) {
	if !c.adaptive {
		return
	}
	if backlog > 0 || drained >= c.cur {
		c.cur = min(2*c.cur, DefaultMaxBurst)
		return
	}
	if c.cur > 1 {
		c.cur /= 2
	}
}

// QueueSched is one worker's handle on a node's claim-based queue
// scheduler. Workers stride-partition the queues — worker w of W homes
// queues q with q ≡ w (mod W) — which makes the home layout at
// Queues == Workers a 1:1 pinning (a lone worker homes every queue and
// never steals), and keeps partition→home-worker assignment consistent
// with RSS arithmetic whenever the queue count is a multiple of the
// worker count. A QueueSched belongs to one worker goroutine.
type QueueSched struct {
	n       *Node
	worker  int
	workers int
	home    []int // ingress queues this worker prefers (stride layout)
	cursor  int   // round-robin start within home, for drain fairness
}

// NewQueueSched returns worker `worker`'s scheduler handle (0 ≤ worker <
// workers) over this node's ingress queues.
func (n *Node) NewQueueSched(worker, workers int) *QueueSched {
	if workers <= 0 {
		workers = 1
	}
	s := &QueueSched{n: n, worker: worker % workers, workers: workers}
	for q := s.worker; q < len(n.queues); q += workers {
		s.home = append(s.home, q)
	}
	return s
}

// Acquire blocks until it has claimed a non-empty queue, returning its
// index and whether the claim was a steal (a queue homed on a sibling
// worker), or q == -1 once the node has crashed. Home queues are tried
// first in round-robin order; only when every home queue is empty or
// already claimed does the worker steal the deepest backlogged unclaimed
// queue — "help the most overloaded sibling" — before sleeping on the
// node's doorbell.
func (s *QueueSched) Acquire() (q int, stolen bool) {
	n := s.n
	for {
		if n.crashed.Load() {
			return -1, false
		}
		for i := 0; i < len(s.home); i++ {
			h := s.home[(s.cursor+i)%len(s.home)]
			if len(n.queues[h]) > 0 && n.claims[h].CompareAndSwap(false, true) {
				// Re-verify under the claim: between the depth peek and the
				// CAS a sibling may have drained the queue empty and
				// released it. Only the claim holder drains, so a queue
				// seen non-empty here stays non-empty until we drain it.
				if len(n.queues[h]) == 0 {
					s.Release(h)
					continue
				}
				s.cursor = (s.cursor + i + 1) % len(s.home)
				return h, false
			}
		}
		deepest, depth := -1, 0
		for q := range n.queues {
			if d := len(n.queues[q]); d > depth && !n.claims[q].Load() {
				deepest, depth = q, d
			}
		}
		if deepest >= 0 {
			if n.claims[deepest].CompareAndSwap(false, true) {
				if len(n.queues[deepest]) == 0 { // drained between scan and CAS
					s.Release(deepest)
					continue
				}
				return deepest, deepest%s.workers != s.worker
			}
			continue // lost the claim race; rescan, the landscape changed
		}
		select {
		case <-n.bell:
		case <-n.crashCh:
			return -1, false
		}
	}
}

// Release returns a claimed queue to the pool. If frames remain queued
// (the drain budget filled before the queue emptied) it rings the
// doorbell: a sibling that went to sleep while the queue was claimed
// would otherwise never learn about the leftover backlog.
func (s *QueueSched) Release(q int) {
	n := s.n
	n.claims[q].Store(false)
	if len(n.queues[q]) > 0 {
		n.ring()
	}
}

// DrainClaimed moves up to len(buf) already-queued frames from queue q
// into buf without blocking and returns the count (0 once the node has
// crashed). The caller must hold the queue's claim (QueueSched.Acquire),
// which is what guarantees a partition's frames are never interleaved
// across two workers. A zero count is NOT a crash signal on its own:
// although Acquire re-verifies depth under the claim, callers that claim
// queues by other means may win one a sibling just drained empty, so
// treat n == 0 as "nothing to do" and loop back to Acquire — only
// Acquire's q == -1 means the node is gone.
func (n *Node) DrainClaimed(q int, buf []Inbound) int {
	if n.crashed.Load() {
		return 0
	}
	ch := n.queues[q]
	cnt := 0
	for cnt < len(buf) {
		select {
		case buf[cnt] = <-ch:
			cnt++
		default:
			return cnt
		}
	}
	return cnt
}

// QueueDepths appends the current depth of every ingress queue to buf
// (reset to length zero first) and returns it — observability for
// shutdown dumps and backlog diagnostics.
func (n *Node) QueueDepths(buf []int) []int {
	buf = buf[:0]
	for _, ch := range n.queues {
		buf = append(buf, len(ch))
	}
	return buf
}
