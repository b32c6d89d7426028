package netsim

// Scheduling layer for queue workers (DESIGN.md §9): one goroutine reads
// each ingress queue, and a NAPI-style adaptive burst controller sizes its
// drains. The RSS selector hashes a flow to exactly one queue, so a flow's
// frames have one reader and keep their order.

// DefaultMaxBurst caps the adaptive burst controller's growth: under
// sustained backlog a worker drains up to this many frames per receive.
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
