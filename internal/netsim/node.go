package netsim

import (
	"sync"
	"sync/atomic"
)

// Inbound is a frame delivered to a node, tagged with its sender.
type Inbound struct {
	From  NodeID
	Frame []byte
}

// QueueSelector maps an inbound frame to an ingress queue index, simulating
// NIC receive-side scaling. It must return a value in [0, queues).
type QueueSelector func(frame []byte, queues int) int

// NodeConfig configures a node's simulated NIC.
type NodeConfig struct {
	// Queues is the number of ingress queues (default 1).
	Queues int
	// QueueCap is the per-queue capacity in frames (default 1024).
	// Full queues tail-drop, like a NIC ring.
	QueueCap int
	// Selector picks the ingress queue per frame (default: queue 0).
	Selector QueueSelector
	// Deliver, if set, replaces the ingress queues: the fabric calls it on
	// the sender's goroutine with every burst sent to this node — first,
	// then rest, in order; a single Send passes a nil rest, so no slice is
	// built per frame. The frames are borrowed: they belong to the sender
	// again as soon as the call returns, and the hook must copy what it
	// keeps. Several senders may call it at once. A crashed node's hook is
	// no longer called. Queues, QueueCap and Selector are ignored and the
	// node has nothing to Recv.
	Deliver func(first []byte, rest [][]byte)
}

// Node is a simulated server attached to the fabric.
type Node struct {
	id       NodeID
	fabric   *Fabric
	queues   []chan Inbound
	selector QueueSelector
	hook     func(first []byte, rest [][]byte) // NodeConfig.Deliver; queues is empty when set
	// ingest is the pipeline attached with AttachIngest, nil without one;
	// Fabric.Inject runs it on the injecting goroutine instead of queueing.
	ingest  atomic.Pointer[func(frames [][]byte) bool]
	crashed atomic.Bool
	crashOn sync.Once
	crashCh chan struct{} // closed on Crash; queues are never closed

	// claims are the per-queue worker-claim flags of the stealing scheduler
	// (sched.go): a set flag means one worker holds exclusive drain rights.
	claims []atomic.Bool
	// bell is the scheduler doorbell: enqueue pulses it after a frame is
	// visible, and Release pulses it when a queue is returned with backlog,
	// so a worker sleeping in Acquire can never miss work.
	bell chan struct{}
	// clamps counts selector results that fell outside [0, queues) and were
	// clamped to queue 0 — a misconfigured RSS selector would otherwise
	// silently pile flows onto one queue. Racy callers (full + enqueue) may
	// count one frame twice; the counter is a bug indicator, not an exact
	// tally.
	clamps Counter64

	// routes caches resolved destinations so steady-state sends skip the
	// fabric's node map and its RWMutex. Entries are purged by RemoveNode;
	// stale hits (crashed destination) fall back to slow resolution.
	routes sync.Map // NodeID → *route

	rpcMu    sync.RWMutex
	handlers map[string]RPCHandler
}

func newNode(id NodeID, f *Fabric, cfg NodeConfig) *Node {
	if cfg.Deliver != nil {
		cfg.Queues = 0
	} else if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	n := &Node{
		id:       id,
		fabric:   f,
		queues:   make([]chan Inbound, cfg.Queues),
		selector: cfg.Selector,
		hook:     cfg.Deliver,
		crashCh:  make(chan struct{}),
		claims:   make([]atomic.Bool, cfg.Queues),
		bell:     make(chan struct{}, cfg.Queues),
		handlers: make(map[string]RPCHandler),
	}
	for i := range n.queues {
		n.queues[i] = make(chan Inbound, cfg.QueueCap)
	}
	return n
}

// AttachIngest makes the node run-to-completion for traffic from outside
// the fabric: Fabric.Inject hands fn each burst on the injecting goroutine
// instead of copying it frame by frame into the ingress queues. The frames
// are borrowed — they belong to the injector again as soon as fn returns,
// and fn copies what it keeps — and several injectors may call fn at once.
// fn reports whether it took the burst; false drops and counts it, as a
// crashed node does (fn is no longer called once the node has crashed).
// Sends from fabric nodes and injections over a shaped or lossy link still
// arrive through the queues: between simulated servers the queue is the NIC
// ring.
func (n *Node) AttachIngest(fn func(frames [][]byte) bool) { n.ingest.Store(&fn) }

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// NumQueues reports the number of ingress queues.
func (n *Node) NumQueues() int { return len(n.queues) }

// pickQueue maps a frame to its ingress queue, clamping out-of-range
// selector results to queue 0. full and enqueue share it so a racy or
// non-deterministic selector can never make them disagree about which
// queue a frame targets.
func (n *Node) pickQueue(frame []byte) int {
	if n.selector == nil || len(n.queues) <= 1 {
		return 0
	}
	q := n.selector(frame, len(n.queues))
	if q < 0 || q >= len(n.queues) {
		n.clamps.inc()
		return 0
	}
	return q
}

// Clamps reports how many selector results were clamped to queue 0 for
// being out of range (see pickQueue).
func (n *Node) Clamps() uint64 { return n.clamps.Value() }

// full reports whether the queue the frame would select is at capacity.
// Racy by design: it only biases overload toward cheap drops.
func (n *Node) full(frame []byte) bool {
	q := n.pickQueue(frame)
	return len(n.queues[q]) >= cap(n.queues[q])
}

// enqueue delivers a frame into the appropriate ingress queue. Without
// block it reports false when the node is crashed or the queue is full
// (tail drop); with block it waits for space, modelling link-level flow
// control, and fails only if the node crashes.
func (n *Node) enqueue(from NodeID, frame []byte, block bool) bool {
	if n.crashed.Load() {
		return false
	}
	q := n.pickQueue(frame)
	in := Inbound{From: from, Frame: frame}
	if block {
		select {
		case n.queues[q] <- in:
			n.ring()
			return true
		case <-n.crashCh:
			return false
		}
	}
	select {
	case n.queues[q] <- in:
		n.ring()
		return true
	case <-n.crashCh:
		return false
	default:
		return false
	}
}

// ring pulses the scheduler doorbell after a frame became visible in a
// queue. The send fails fast (lock-free) when the bell buffer is already
// full — a pending pulse is enough to wake every sleeping worker in turn,
// since each wakes, rescans all queues, and re-rings on backlogged release.
func (n *Node) ring() {
	select {
	case n.bell <- struct{}{}:
	default:
	}
}

// Recv blocks until a frame arrives on queue q or the node crashes.
// ok is false once the node has crashed (undelivered frames are lost with
// it, like a powered-off server's RX ring).
func (n *Node) Recv(q int) (in Inbound, ok bool) {
	select {
	case in = <-n.queues[q]:
		return in, true
	case <-n.crashCh:
		return Inbound{}, false
	}
}

// RecvBurst drains up to len(buf) frames from queue q into buf in one
// channel round-trip: one blocking receive for the first frame, then a
// non-blocking drain of whatever else is already queued. It returns the
// number of frames received, or 0 once the node has crashed. This is the
// vector-packet-processing ingress: a worker pays one goroutine wakeup per
// burst instead of per frame. With len(buf) == 1 it behaves exactly like
// Recv.
func (n *Node) RecvBurst(q int, buf []Inbound) int {
	if len(buf) == 0 {
		return 0
	}
	ch := n.queues[q]
	select {
	case buf[0] = <-ch:
	case <-n.crashCh:
		return 0
	}
	cnt := 1
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

// TryRecv receives without blocking.
func (n *Node) TryRecv(q int) (in Inbound, ok bool) {
	if n.crashed.Load() {
		return Inbound{}, false
	}
	select {
	case in = <-n.queues[q]:
		return in, true
	default:
		return Inbound{}, false
	}
}

// QueueLen reports the current depth of queue q.
func (n *Node) QueueLen(q int) int { return len(n.queues[q]) }

// Send transmits a frame from this node (tail-drop on a full destination).
func (n *Node) Send(dst NodeID, frame []byte) error {
	return n.sendCached(dst, frame, false)
}

// SendBlocking transmits a frame, waiting for queue space at the
// destination on zero-latency links (link-level flow control between
// pipeline stages). On links with latency or bandwidth shaping, delivery is
// scheduled and the call does not block.
func (n *Node) SendBlocking(dst NodeID, frame []byte) error {
	return n.sendCached(dst, frame, true)
}

// sendCached is the per-frame egress path: one atomic crash check, one
// atomic stop check, and a route-cache hit replace the fabric's map lookup
// and RWMutex on every steady-state send.
func (n *Node) sendCached(dst NodeID, frame []byte, block bool) error {
	rt, err := n.resolve(dst)
	if err != nil {
		return err
	}
	n.fabric.transmit(rt.l, rt.n, n.id, frame, block)
	return nil
}

// resolve returns the (link, destination) route for dst, consulting the
// per-node route cache first and falling back to the fabric's node map.
func (n *Node) resolve(dst NodeID) (*route, error) {
	if n.crashed.Load() {
		return nil, ErrNodeCrashed
	}
	f := n.fabric
	if f.stopped.Load() {
		return nil, ErrFabricDown
	}
	if v, ok := n.routes.Load(dst); ok {
		rt := v.(*route)
		if !rt.n.crashed.Load() {
			return rt, nil
		}
		// The cached destination crashed. It may have been removed (and the
		// purge raced with us) or even replaced by a new node under the same
		// id — drop the entry and resolve from scratch.
		n.routes.Delete(dst)
	}
	f.mu.RLock()
	dn := f.nodes[dst]
	f.mu.RUnlock()
	if dn == nil {
		return nil, ErrUnknownNode
	}
	l := f.getLink(n.id, dst)
	rt := &route{l: l, n: dn}
	if !dn.crashed.Load() {
		// Cache only live destinations: a crashed-but-present node keeps
		// taking the slow path, preserving drop accounting without pinning a
		// dead entry.
		n.routes.Store(dst, rt)
	}
	return rt, nil
}

// SendBurst transmits a burst of frames to one destination, resolving the
// route and the link profile once for the whole burst. Per-frame semantics
// are identical to calling Send in a loop: each frame is copied, tail-drops
// independently at a full destination queue, and shaped links schedule each
// frame as they do today. With block set, zero-latency links exert per-frame
// flow control like SendBlocking.
func (n *Node) SendBurst(dst NodeID, frames [][]byte) error {
	return n.sendBurst(dst, frames, false)
}

// SendBurstBlocking is SendBurst with link-level flow control between
// pipeline stages (see SendBlocking).
func (n *Node) SendBurstBlocking(dst NodeID, frames [][]byte) error {
	return n.sendBurst(dst, frames, true)
}

func (n *Node) sendBurst(dst NodeID, frames [][]byte, block bool) error {
	if len(frames) == 0 {
		return nil
	}
	rt, err := n.resolve(dst)
	if err != nil {
		return err
	}
	n.fabric.transmitBurst(rt.l, rt.n, n.id, frames, block)
	return nil
}

// Crash fail-stops the node: receivers and blocked senders unblock, pending
// RPCs fail, and all future traffic to or from the node is dropped. Crash
// is idempotent.
func (n *Node) Crash() {
	n.crashed.Store(true)
	n.crashOn.Do(func() { close(n.crashCh) })
}

// Crashed reports whether the node has fail-stopped.
func (n *Node) Crashed() bool { return n.crashed.Load() }
