// Package netsim provides the simulated network substrate the FTC
// reproduction runs on: servers (nodes) with multi-queue NIC-style ingress,
// links with configurable latency, jitter, bandwidth, loss, and reordering,
// a control-plane RPC layer, and crash-stop fault injection.
//
// The paper's testbed is a rack of DPDK servers; this fabric replaces it
// while exercising the identical protocol code paths. Frames are raw byte
// slices; delivery copies them so each node owns its buffers, like a real
// NIC ring. Links with zero latency and unlimited bandwidth take a direct
// enqueue fast path — no per-link mutex, no timer — so throughput benchmarks
// measure protocol cost rather than simulator overhead. Delivery buffers are
// pooled (see pool.go); receivers may return them with ReleaseFrame.
//
// A node that stands in for something outside the fabric (the socket
// bridge's peer proxies) takes a delivery hook instead of ingress queues
// (NodeConfig.Deliver): the fabric hands it the frames on the sender's
// goroutine, borrowed for the duration of the call, and the hook copies
// whatever it keeps. The other direction has the same shape: traffic that
// enters from outside the fabric (Fabric.Inject) runs the pipeline a node
// has attached (Node.AttachIngest) on the injecting goroutine, frames
// borrowed, and only nodes with nothing attached, shaped or lossy links and
// senders inside the fabric use the queues.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID names a simulated server.
type NodeID string

// Errors returned by fabric operations.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrNodeCrashed = errors.New("netsim: node crashed")
	ErrFabricDown  = errors.New("netsim: fabric stopped")
)

// LinkProfile describes the behaviour of a directional link.
type LinkProfile struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per frame.
	Jitter time.Duration
	// LossRate drops this fraction of frames (0..1).
	LossRate float64
	// ReorderRate delays this fraction of frames by an extra 2× latency,
	// causing reordering relative to later frames.
	ReorderRate float64
	// BandwidthBps, if non-zero, serializes frames at this bit rate.
	BandwidthBps int64
	// MTU, if non-zero, drops frames larger than this many bytes — the
	// constraint that makes jumbo frames necessary for FTC chains carrying
	// large piggybacked state (§7.2).
	MTU int
	// Down simulates a network partition: all frames dropped.
	Down bool
}

func (p LinkProfile) needsScheduling() bool {
	return p.Latency > 0 || p.Jitter > 0 || p.ReorderRate > 0 || p.BandwidthBps > 0
}

// fastPath reports whether a frame on this link can be enqueued directly:
// no drop decision, no delay computation, so no need for the link mutex or
// its rng.
func (p *LinkProfile) fastPath() bool {
	return !p.Down && p.MTU == 0 && p.LossRate == 0 && !p.needsScheduling()
}

type linkKey struct{ src, dst NodeID }

// link is a stable per-(src,dst) object: SetLink swaps the profile pointer
// in place rather than replacing the link, so per-node route caches holding
// *link stay valid across reconfiguration. The mutex guards only the rng and
// the bandwidth clock, which the profile fast path never touches.
type link struct {
	profile  atomic.Pointer[LinkProfile]
	mu       sync.Mutex
	rng      *rand.Rand
	nextFree time.Time // bandwidth serialization clock
}

// route is a resolved (link, destination) pair cached per sender node.
type route struct {
	l *link
	n *Node
}

// Config configures a Fabric.
type Config struct {
	// Seed seeds the per-link randomness (loss, jitter, reorder).
	Seed int64
	// DefaultLink applies to node pairs without an explicit SetLink.
	DefaultLink LinkProfile
}

// Fabric connects nodes. All methods are safe for concurrent use.
type Fabric struct {
	mu      sync.RWMutex
	cfg     Config
	nodes   map[NodeID]*Node
	links   map[linkKey]*link
	stopped atomic.Bool
	seedCtr int64

	// Stats
	sent, delivered, dropped, lost Counter64
}

// Counter64 is a tiny atomic counter used for fabric statistics.
type Counter64 struct {
	v atomic.Uint64
}

func (c *Counter64) inc() {
	c.v.Add(1)
}

// Value reports the current count.
func (c *Counter64) Value() uint64 {
	return c.v.Load()
}

// New creates an empty fabric.
func New(cfg Config) *Fabric {
	return &Fabric{
		cfg:   cfg,
		nodes: make(map[NodeID]*Node),
		links: make(map[linkKey]*link),
	}
}

// Stats reports cumulative fabric counters: frames sent, delivered, dropped
// at full queues, and lost on lossy/partitioned links.
func (f *Fabric) Stats() (sent, delivered, dropped, lost uint64) {
	return f.sent.Value(), f.delivered.Value(), f.dropped.Value(), f.lost.Value()
}

// AddNode registers a new node. Panics if the id already exists — topology
// construction bugs should fail fast.
func (f *Fabric) AddNode(id NodeID, cfg NodeConfig) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", id))
	}
	n := newNode(id, f, cfg)
	f.nodes[id] = n
	return n
}

// RemoveNode deletes a node (e.g., after a crash has been handled). Frames
// in flight to it are dropped.
func (f *Fabric) RemoveNode(id NodeID) {
	f.mu.Lock()
	n := f.nodes[id]
	delete(f.nodes, id)
	f.mu.Unlock()
	if n != nil {
		n.Crash()
	}
	// Purge route caches after the crash flag is visible: a sender hitting a
	// stale entry sees the crashed node and falls back to slow resolution,
	// which now reports ErrUnknownNode.
	f.mu.RLock()
	for _, other := range f.nodes {
		other.routes.Delete(id)
	}
	f.mu.RUnlock()
}

// Node returns the named node, or nil.
func (f *Fabric) Node(id NodeID) *Node {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nodes[id]
}

// SetLink sets the profile of the directional link src→dst. The link object
// (and its rng) is reused if it already exists, so cached routes observe the
// new profile on their next frame.
func (f *Fabric) SetLink(src, dst NodeID, p LinkProfile) {
	l := f.getLink(src, dst)
	l.profile.Store(&p)
}

// SetLinkBoth sets the profile in both directions.
func (f *Fabric) SetLinkBoth(a, b NodeID, p LinkProfile) {
	f.SetLink(a, b, p)
	f.SetLink(b, a, p)
}

func (f *Fabric) getLink(src, dst NodeID) *link {
	f.mu.RLock()
	l := f.links[linkKey{src, dst}]
	f.mu.RUnlock()
	if l != nil {
		return l
	}
	// Lazily materialize the default link so it gets its own rng/clock.
	f.mu.Lock()
	defer f.mu.Unlock()
	if l = f.links[linkKey{src, dst}]; l != nil {
		return l
	}
	f.seedCtr++
	l = &link{rng: rand.New(rand.NewSource(f.cfg.Seed + f.seedCtr))}
	p := f.cfg.DefaultLink
	l.profile.Store(&p)
	f.links[linkKey{src, dst}] = l
	return l
}

// Send injects one frame (see Inject). Like a real network, it does not
// report downstream loss: it returns an error only if the destination is
// unknown or the fabric is stopped. Frames to crashed nodes vanish
// (fail-stop).
func (f *Fabric) Send(src, dst NodeID, frame []byte) error {
	return f.Inject(src, dst, [][]byte{frame})
}

// Inject transmits a burst of frames into the fabric from a source that is
// not a fabric node — the trans bridge injects each received datagram vector
// this way — resolving the destination and link profile once for the whole
// burst. A destination with a pipeline attached (Node.AttachIngest) runs it
// on the calling goroutine when the link is on the zero-profile fast path:
// the frames are borrowed for the call, nothing is copied or queued here,
// and a crashed or refusing node drops and counts the burst. Any other
// destination, and any shaped or lossy link, gets what a node-to-node
// SendBurst gives: each frame is copied and tail-drops independently.
func (f *Fabric) Inject(src, dst NodeID, frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	if f.stopped.Load() {
		return ErrFabricDown
	}
	f.mu.RLock()
	n := f.nodes[dst]
	f.mu.RUnlock()
	if n == nil {
		return ErrUnknownNode
	}
	l := f.getLink(src, dst)
	if ingest := n.ingest.Load(); ingest != nil && l.profile.Load().fastPath() {
		f.sent.v.Add(uint64(len(frames)))
		if !n.crashed.Load() && (*ingest)(frames) {
			f.delivered.v.Add(uint64(len(frames)))
		} else {
			f.dropped.v.Add(uint64(len(frames)))
		}
		return nil
	}
	f.transmitBurst(l, n, src, frames, false)
	return nil
}

// transmit applies the link profile and delivers one frame. The common case
// (zero profile: no loss, no shaping, link up) touches no locks beyond the
// destination queue and allocates nothing when the pool has a buffer.
func (f *Fabric) transmit(l *link, n *Node, src NodeID, frame []byte, block bool) {
	f.sent.inc()
	p := l.profile.Load()
	if p.fastPath() {
		if n.hook != nil {
			f.handoff(n, frame, nil)
			return
		}
		if !block && n.full(frame) {
			// Fast-path tail drop before paying for the frame copy: an
			// overloaded blast workload would otherwise spend most of one
			// core copying frames that are immediately discarded.
			f.dropped.inc()
			return
		}
		buf := receiverCopy(frame)
		f.deliver(n, src, buf, block)
		return
	}

	l.mu.Lock()
	if p.Down || (p.MTU > 0 && len(frame) > p.MTU) ||
		(p.LossRate > 0 && l.rng.Float64() < p.LossRate) {
		l.mu.Unlock()
		f.lost.inc()
		return
	}
	var delay time.Duration
	if p.needsScheduling() {
		delay = p.Latency
		if p.Jitter > 0 {
			delay += time.Duration(l.rng.Int63n(int64(p.Jitter)))
		}
		if p.ReorderRate > 0 && l.rng.Float64() < p.ReorderRate {
			delay += 2 * p.Latency
		}
		if p.BandwidthBps > 0 {
			now := time.Now()
			txTime := time.Duration(float64(len(frame)*8) / float64(p.BandwidthBps) * float64(time.Second))
			if l.nextFree.Before(now) {
				l.nextFree = now
			}
			l.nextFree = l.nextFree.Add(txTime)
			delay += l.nextFree.Sub(now)
		}
	}
	l.mu.Unlock()

	if delay <= 0 && !block && n.hook == nil && n.full(frame) {
		f.dropped.inc()
		return
	}
	buf := receiverCopy(frame)

	if delay <= 0 {
		f.deliver(n, src, buf, block)
		return
	}
	// Scheduled deliveries never block: a timer goroutine stalling on a
	// full queue would reorder the link arbitrarily.
	time.AfterFunc(delay, func() { f.deliver(n, src, buf, false) })
}

// FrameHeadroom is the spare capacity behind every delivered frame (and every
// frame an attached pipeline carves for itself, see AttachIngest), so the
// receiver can insert the 4-byte FTC option and append a piggyback trailer
// in place instead of reallocating the frame and losing the pooled buffer.
// Sized from what the frozen benchmark measures a packet to gain on a chain
// link (core.piggyback_bytes_per_pkt: 25–106 B across its four workloads)
// plus the option and the trailer footer; a bigger trailer (a coalesced run
// of large values) still works, it just reallocates as before.
const FrameHeadroom = 128

// receiverCopy makes the receiver-owned copy of frame on a pooled buffer
// with FrameHeadroom behind it.
func receiverCopy(frame []byte) []byte {
	buf := AcquireFrame(len(frame) + FrameHeadroom)[:len(frame)]
	copy(buf, frame)
	return buf
}

// transmitBurst applies the link profile to a burst of frames for one
// destination. On the zero-profile fast path the profile pointer is loaded
// once and the sent counter is bumped once for the whole burst; each frame
// still copies, tail-drops, and flow-controls individually, so burst
// delivery is byte-for-byte equivalent to a loop over transmit. Shaped or
// lossy links fall back to per-frame transmit so loss, jitter, reordering,
// and bandwidth serialization consume the link's rng and clock in exactly
// the per-frame order they do today.
func (f *Fabric) transmitBurst(l *link, n *Node, src NodeID, frames [][]byte, block bool) {
	p := l.profile.Load()
	if !p.fastPath() {
		for _, frame := range frames {
			f.transmit(l, n, src, frame, block)
		}
		return
	}
	f.sent.v.Add(uint64(len(frames)))
	if n.hook != nil {
		f.handoff(n, frames[0], frames[1:])
		return
	}
	for _, frame := range frames {
		if !block && n.full(frame) {
			f.dropped.inc()
			continue
		}
		buf := receiverCopy(frame)
		f.deliver(n, src, buf, block)
	}
}

// handoff gives a hook node the sender's own frames, synchronously: no
// receiver copy, no queue, no wake-up. A crashed hook node drops, and
// counts, as a crashed queue node does.
func (f *Fabric) handoff(n *Node, first []byte, rest [][]byte) {
	if n.crashed.Load() {
		f.dropped.v.Add(uint64(1 + len(rest)))
		return
	}
	n.hook(first, rest)
	f.delivered.v.Add(uint64(1 + len(rest)))
}

func (f *Fabric) deliver(n *Node, from NodeID, frame []byte, block bool) {
	if n.hook != nil {
		// Only shaped or lossy links reach a hook node here, with a pooled
		// copy the hook borrows like any other frame.
		f.handoff(n, frame, nil)
		ReleaseFrame(frame)
		return
	}
	if n.enqueue(from, frame, block) {
		f.delivered.inc()
	} else {
		f.dropped.inc()
		// The frame never reached a receiver; recycle it here. This covers
		// both the direct path and time.AfterFunc deliveries to full or
		// crashed queues.
		ReleaseFrame(frame)
	}
}

// Stop shuts the fabric down: all sends fail and all nodes crash.
func (f *Fabric) Stop() {
	f.stopped.Store(true)
	f.mu.Lock()
	nodes := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.mu.Unlock()
	for _, n := range nodes {
		n.Crash()
	}
}
