// Package trans bridges a local netsim fabric to real sockets so FTC
// replicas can run as separate OS processes: the data plane tunnels frames
// over UDP and the control plane (repair, recovery fetch, heartbeats) runs
// over TCP. Each process hosts one replica on a private fabric plus proxy
// nodes standing in for its remote peers; the bridge shuttles frames and
// RPCs between the proxies and the network.
//
// The data plane batches at three levels (DESIGN.md §8): frames bound for
// the same peer are coalesced into packed datagrams (one length-prefixed
// record per frame, see frame.go) up to Config.MTUBudget bytes, on Linux
// whole *vectors of datagrams* move per syscall — sendmmsg on the send
// side, recvmmsg on the receive side — the userspace analogue of the
// paper's DPDK rx/tx bursts, and within a vector a run of datagrams crosses
// the kernel's UDP/IP stack as one segmented message (UDP_SEGMENT out,
// UDP_GRO in), cut back into the same datagrams at the far end of the
// stack. The send side has no queue and no goroutine of its own: a proxy is
// a netsim hook node, so the goroutine that sends a burst to it packs that
// burst and makes the syscall before its SendBurst returns, as the paper's
// worker thread transmits the burst it processed.
// Inbound load is spread by the kernel across Config.Sockets SO_REUSEPORT
// sockets, one receive goroutine each, so the kernel's 4-tuple hash does
// RSS instead of funneling every peer through one socket. The receive side
// has no queue either where the local node is a replica: the goroutine that
// read a datagram vector runs the replica's pipeline on it (netsim's
// Fabric.Inject into a node with a pipeline attached) and, through the next
// hop's proxy, sends the result before it reads again — recvmmsg, pipeline,
// sendmmsg on one goroutine, as the paper's poll-mode thread. The socket
// buffer is then the only ingress queue. Every burst is
// flushed when its sender has packed it, so Burst=1 and light load keep
// per-packet latency. Non-Linux builds fall back to the portable
// one-datagram-per-syscall path on a single socket; every path decodes the
// same datagrams, so mixed deployments interoperate.
//
// This is the deployment path cmd/ftcd uses. The protocol logic is byte-
// identical to the in-process fabric — the bridge only moves frames.
package trans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// sendBatchDatagrams is the datagram-vector capacity of one sendmmsg call:
// a sender's burst is sealed into packed datagrams and up to this many ship
// with one syscall. A full adaptive burst of small frames at a real
// 1472-byte MTU packs into well under this many datagrams.
const sendBatchDatagrams = 64

// maxSockets caps Config.Sockets: SO_REUSEPORT groups beyond the machine's
// core count only fragment the kernel's flow hash without adding recv
// parallelism.
const maxSockets = 16

// Config tunes a bridge's batching behaviour.
type Config struct {
	// Burst sizes the receive side's datagram vector (0 — the default —
	// sizes it for netsim.DefaultMaxBurst, the largest burst an adaptive
	// core.Config.Burst worker produces); the frames one read unpacks to are
	// injected as one burst, which may be larger (a datagram packs many).
	// The send side needs no budget: the burst a sender hands a proxy is
	// what gets packed and flushed.
	// Burst 1 selects the per-packet transport: every frame of that burst
	// ships alone — one frame, one datagram, one syscall.
	Burst int
	// MTUBudget is the per-datagram packing budget in bytes: a datagram
	// is flushed before a frame whose record would push the packed size
	// past the budget. A frame above the budget (but within MaxFrame)
	// travels alone in its own datagram. Defaults to DefaultMTUBudget.
	MTUBudget int
	// SocketBuf, if non-zero, requests this many bytes of kernel
	// send and receive buffering on each tunnel UDP socket
	// (SO_SNDBUF/SO_RCVBUF). The receive buffer is a replica's only
	// ingress queue: overload drops happen there, in the kernel's count.
	// Bursty chains on small default buffers drop tail-of-burst datagrams
	// under load; sizing for a few bandwidth-delay products of traffic
	// smooths them out. Zero keeps
	// the OS default. The kernel silently clamps requests to its
	// rmem/wmem caps — Stats.EffRcvBuf and Stats.EffSndBuf report what
	// it actually granted.
	SocketBuf int
	// Sockets is the number of SO_REUSEPORT UDP sockets the data plane
	// binds to the same address, one receive goroutine each, so the
	// kernel hashes inbound flows across them (RSS). Where the local node
	// is a replica those goroutines are its workers, so this is its
	// parallelism: as many replica pipelines run at once as sending
	// 4-tuples land on distinct sockets. 0 — the default — selects
	// GOMAXPROCS. Clamped to 1 on platforms without the Linux
	// fast path, where the bridge runs the portable single-socket
	// transport.
	Sockets int
	// portable is the in-package test seam that forces a Linux bridge onto
	// the portable one-datagram-per-syscall transport — the only transport
	// off Linux, and the fallback when a socket has no raw connection. The
	// wire format is the same, so portable and mmsg bridges interoperate;
	// the mixed-deployment test and the packed benchmark arm set it.
	portable bool
}

// WithDefaults fills zero fields with the package defaults, as NewBridge
// does: Sockets comes back as the socket count a bridge will open here.
func (c Config) WithDefaults() Config {
	if c.MTUBudget <= 0 {
		c.MTUBudget = DefaultMTUBudget
	}
	if c.Sockets <= 0 {
		c.Sockets = runtime.GOMAXPROCS(0)
	}
	if c.Sockets > maxSockets {
		c.Sockets = maxSockets
	}
	if !reuseportSupported {
		c.Sockets = 1
	}
	return c
}

// Peer describes a remote process hosting one fabric node.
type Peer struct {
	// ID is the fabric node ID the remote node is known by (proxied
	// locally under the same name).
	ID netsim.NodeID
	// UDPAddr is the peer's data-plane address.
	UDPAddr string
	// TCPAddr is the peer's control-plane address (may be empty if the
	// peer serves no RPCs).
	TCPAddr string
}

// peerState is a registered peer plus its pre-resolved data-plane address,
// its assigned local socket and its send state, so the send path pays the
// DNS/parse cost once per AddPeer instead of once per burst. The socket
// assignment is sticky: all of a peer's datagrams leave through one local
// socket, so the (src, dst) 4-tuple — and therefore the remote
// SO_REUSEPORT hash bucket — is stable and per-peer FIFO order survives
// multi-socket fan-out.
type peerState struct {
	sock *sock // fixed at first registration
	peer Peer  // guarded by Bridge.mu

	// mu serializes the goroutines sending to this peer (queue workers,
	// the replica's timers, a generator). A sender holds it across pack and
	// flush — parked on a full socket buffer included — which is what
	// keeps the peer's frames in FIFO order on the wire.
	mu   sync.Mutex
	addr *net.UDPAddr
	tx   *txBatch // built by the first send after a (re-)registration
}

// sock is one data-plane UDP socket plus its raw-syscall handle (nil where
// SyscallConn is unavailable, which disables the raw fast paths).
type sock struct {
	conn *net.UDPConn
	raw  syscall.RawConn
}

// Stats is a point-in-time snapshot of a bridge's tunnel counters.
type Stats struct {
	// FramesOut and FramesIn count tunneled data-plane frames.
	FramesOut, FramesIn uint64
	// DatagramsOut and DatagramsIn count the UDP datagrams carrying
	// them — wire datagrams, so each segment of a segmented message is
	// one; FramesOut/DatagramsOut is the achieved send coalescing.
	DatagramsOut, DatagramsIn uint64
	// SendMessages and RecvMessages count the socket messages (msghdrs)
	// the kernel accepted and filled; DatagramsOut/SendMessages is the
	// achieved segmentation (1 wherever every datagram is its own message).
	SendMessages, RecvMessages uint64
	// FrameBytesOut counts the payload bytes of tunneled frames and
	// WireBytesOut the bytes of the datagrams that carried them;
	// FrameBytesOut/WireBytesOut is the tunnel's goodput (the complement
	// is per-record framing overhead plus segment padding).
	FrameBytesOut, WireBytesOut uint64
	// SendSyscalls and RecvSyscalls count data-plane socket syscall
	// invocations (sendmmsg/sendto and recvmmsg/recvfrom, including
	// non-blocking probes that returned nothing); DatagramsOut over
	// SendSyscalls is the achieved syscall batching, and
	// (SendSyscalls+RecvSyscalls)/FramesOut is the syscalls-per-frame
	// cost the mmsg path exists to shrink.
	SendSyscalls, RecvSyscalls uint64
	// SendErrors counts datagram vectors not sent in full because the
	// socket refused with a hard error (or was closed under the sender);
	// like a NIC, the bridge drops the rest and reports nothing upstream.
	SendErrors uint64
	// OversizeDrops counts frames rejected on send for exceeding
	// MaxFrame (see FrameTooLargeError).
	OversizeDrops uint64
	// TruncatedDatagrams counts received datagrams that ended
	// mid-record (including kernel-side MSG_TRUNC short reads); their
	// complete leading frames were still delivered.
	TruncatedDatagrams uint64
	// Sockets is the number of SO_REUSEPORT data-plane sockets in use.
	Sockets int
	// EffRcvBuf and EffSndBuf are the kernel's effective socket buffer
	// sizes (SO_RCVBUF/SO_SNDBUF read back after configuration; Linux
	// reports double the granted request) — the truth behind
	// Config.SocketBuf, which the kernel silently clamps to its
	// rmem/wmem caps. Zero where the platform offers no readback.
	EffRcvBuf, EffSndBuf int
}

// Bridge tunnels one local fabric node's traffic to remote peers.
type Bridge struct {
	fabric  *netsim.Fabric
	localID netsim.NodeID
	cfg     Config

	socks []*sock
	tcp   net.Listener

	effRcvBuf, effSndBuf int

	mu         sync.Mutex
	peers      map[netsim.NodeID]*peerState
	sockCursor int

	framesOut, framesIn         atomic.Uint64
	datagramsOut, datagramsIn   atomic.Uint64
	sendMessages, recvMessages  atomic.Uint64
	frameBytesOut, wireBytesOut atomic.Uint64
	sendSyscalls, recvSyscalls  atomic.Uint64
	sendErrors, oversizeDrops   atomic.Uint64
	truncatedDatagrams          atomic.Uint64

	stopOnce sync.Once
	wg       sync.WaitGroup // the receive loops and the control-plane handlers
}

// NewBridge creates a bridge for the given local node, listening on the
// UDP and TCP addresses, with proxy nodes for each peer. Pass empty listen
// addresses to pick ephemeral ports (see Addrs); the zero Config selects
// the default burst, MTU budget, and one SO_REUSEPORT socket per
// GOMAXPROCS (Linux).
func NewBridge(fabric *netsim.Fabric, localID netsim.NodeID, listenUDP, listenTCP string, peers []Peer, cfg Config) (*Bridge, error) {
	cfg = cfg.WithDefaults()
	if listenUDP == "" {
		listenUDP = "127.0.0.1:0"
	}
	if listenTCP == "" {
		listenTCP = "127.0.0.1:0"
	}
	conns, err := listenUDPSockets(listenUDP, cfg.Sockets)
	if err != nil {
		return nil, fmt.Errorf("trans: listen udp: %w", err)
	}
	socks := make([]*sock, len(conns))
	for i, uc := range conns {
		if cfg.SocketBuf > 0 {
			// Best effort: the kernel clamps to its rmem/wmem limits;
			// Stats reports the effective sizes.
			_ = uc.SetReadBuffer(cfg.SocketBuf)
			_ = uc.SetWriteBuffer(cfg.SocketBuf)
		}
		// A SyscallConn failure (exotic socket state) just disables the
		// raw fast paths; the portable loops still move datagrams.
		raw, _ := uc.SyscallConn()
		socks[i] = &sock{conn: uc, raw: raw}
		if !cfg.portable {
			socks[i].enableGRO()
		}
	}
	tl, err := net.Listen("tcp", listenTCP)
	if err != nil {
		for _, s := range socks {
			s.conn.Close()
		}
		return nil, fmt.Errorf("trans: listen tcp: %w", err)
	}
	b := &Bridge{
		fabric:  fabric,
		localID: localID,
		cfg:     cfg,
		socks:   socks,
		tcp:     tl,
		peers:   make(map[netsim.NodeID]*peerState),
	}
	b.effRcvBuf, b.effSndBuf = sockBufSizes(conns[0])
	for _, p := range peers {
		if err := b.AddPeer(p); err != nil {
			b.Close()
			return nil, err
		}
	}
	b.wg.Add(1 + len(socks))
	for _, s := range socks {
		go b.udpLoop(s)
	}
	go b.tcpLoop()
	return b, nil
}

// Addrs reports the bridge's bound UDP and TCP addresses. With multiple
// SO_REUSEPORT sockets, every socket shares the one UDP address — peers
// need no socket-count awareness.
func (b *Bridge) Addrs() (udp, tcp string) {
	return b.socks[0].conn.LocalAddr().String(), b.tcp.Addr().String()
}

// Stats snapshots the bridge's tunnel counters.
func (b *Bridge) Stats() Stats {
	return Stats{
		FramesOut:          b.framesOut.Load(),
		FramesIn:           b.framesIn.Load(),
		DatagramsOut:       b.datagramsOut.Load(),
		DatagramsIn:        b.datagramsIn.Load(),
		SendMessages:       b.sendMessages.Load(),
		RecvMessages:       b.recvMessages.Load(),
		FrameBytesOut:      b.frameBytesOut.Load(),
		WireBytesOut:       b.wireBytesOut.Load(),
		SendSyscalls:       b.sendSyscalls.Load(),
		RecvSyscalls:       b.recvSyscalls.Load(),
		SendErrors:         b.sendErrors.Load(),
		OversizeDrops:      b.oversizeDrops.Load(),
		TruncatedDatagrams: b.truncatedDatagrams.Load(),
		Sockets:            len(b.socks),
		EffRcvBuf:          b.effRcvBuf,
		EffSndBuf:          b.effSndBuf,
	}
}

// AddPeer registers (or updates) a remote peer, creating its local proxy
// node if needed. The proxy is a hook node: data frames sent to it are
// packed and put on the socket by the sending goroutine (deliver), and
// control RPCs are forwarded over TCP. The data-plane address is resolved
// here, once, so an unresolvable peer fails loudly instead of black-holing
// frames; the peer is also pinned to one local socket here (round-robin
// across the SO_REUSEPORT group) so its wire 4-tuple never changes, also
// not across re-registration.
func (b *Bridge) AddPeer(p Peer) error {
	addr, err := net.ResolveUDPAddr("udp", p.UDPAddr)
	if err != nil {
		return fmt.Errorf("trans: resolve peer %s udp %q: %w", p.ID, p.UDPAddr, err)
	}
	b.mu.Lock()
	ps, existed := b.peers[p.ID]
	if !existed {
		ps = &peerState{sock: b.socks[b.sockCursor%len(b.socks)]}
		b.sockCursor++
		b.peers[p.ID] = ps
	}
	ps.peer = p
	b.mu.Unlock()
	// Every burst is flushed before its sender unlocks, so the old batch
	// holds nothing; the next sender builds one for the new address.
	ps.mu.Lock()
	ps.addr, ps.tx = addr, nil
	ps.mu.Unlock()
	if existed {
		return nil
	}
	proxy := b.fabric.AddNode(p.ID, netsim.NodeConfig{
		Deliver: func(first []byte, rest [][]byte) { b.deliver(ps, first, rest) },
	})
	for _, name := range rpcNames {
		name := name
		proxy.RegisterRPC(name, func(_ netsim.NodeID, req []byte) ([]byte, error) {
			return b.forwardRPC(p.ID, name, req)
		})
	}
	return nil
}

// rpcNames lists the control RPCs proxied across processes. Kept in sync
// with the core package's control plane.
var rpcNames = []string{"ftc.repair", "ftc.fetch", "ftc.setgen", "ftc.setroute", "ftc.ping"}

// ---- send path: frames → packed datagrams → datagram vectors → segmented messages ----

// txBatch accumulates one peer's outbound traffic through the batching
// levels: frames are packed into the current datagram (sealed when the
// next record would exceed the MTU budget), sealed datagrams collect into
// a vector, and the vector is shipped with one sendmmsg call in which runs
// of datagrams are single segmented messages (Linux; one sendto per
// datagram on the portable path). All buffers are preallocated, so the
// steady-state send loop allocates nothing.
type txBatch struct {
	b      *Bridge
	s      *sock
	addr   *net.UDPAddr
	budget int
	bufs   [][]byte // fixed datagram slots, reused forever
	dgrams [][]byte // sealed datagrams awaiting emit (alias bufs)
	cur    []byte   // datagram being packed (= bufs[len(dgrams)])
	mm     mmsgTx   // platform syscall state (empty off Linux)
}

// newTxBatch returns a send batch for one peer on its assigned socket.
func (b *Bridge) newTxBatch(s *sock, addr *net.UDPAddr) *txBatch {
	t := &txBatch{
		b: b, s: s, addr: addr, budget: b.cfg.MTUBudget,
		bufs:   make([][]byte, sendBatchDatagrams),
		dgrams: make([][]byte, 0, sendBatchDatagrams),
	}
	for i := range t.bufs {
		// Budget-sized packing plus headroom for one oversized record: a
		// single frame above the budget (≤ MaxFrame) travels alone.
		t.bufs[i] = make([]byte, 0, b.cfg.MTUBudget+frameHdrLen+MaxFrame)
	}
	t.cur = t.bufs[0]
	t.initPlatform()
	return t
}

// appendFrame packs one frame record into the current datagram, sealing
// it first when the record would exceed the MTU budget (and emitting the
// whole vector when the seal fills it). Oversize frames are rejected with
// *FrameTooLargeError, leaving the batch unchanged.
func (t *txBatch) appendFrame(frame []byte) error {
	if len(t.cur) > 0 && len(t.cur)+frameHdrLen+len(frame) > t.budget {
		t.seal()
	}
	cur, err := AppendFrame(t.cur, frame)
	t.cur = cur
	return err
}

// seal finishes the current datagram and starts the next slot, emitting
// the vector when all slots are sealed.
func (t *txBatch) seal() {
	if len(t.cur) == 0 {
		return
	}
	t.dgrams = append(t.dgrams, t.cur)
	if len(t.dgrams) == len(t.bufs) {
		t.emit()
		return
	}
	t.cur = t.bufs[len(t.dgrams)][:0]
}

// flush seals the pending datagram and emits whatever the batch holds;
// deliver calls it at the end of every burst, so partial bursts (even a
// single frame under light load) ship without delay.
func (t *txBatch) flush() {
	t.seal()
	t.emit()
}

// emit ships the sealed datagram vector and resets the batch. Wire bytes
// are summed after send, which may have padded datagrams in place.
func (t *txBatch) emit() {
	if len(t.dgrams) == 0 {
		return
	}
	t.b.datagramsOut.Add(uint64(len(t.dgrams)))
	if !t.send() {
		t.b.sendErrors.Add(1)
	}
	wire := uint64(0)
	for _, d := range t.dgrams {
		wire += uint64(len(d))
	}
	t.b.wireBytesOut.Add(wire)
	t.dgrams = t.dgrams[:0]
	t.cur = t.bufs[0][:0]
}

// sendPortable ships the sealed vector one sendto syscall per datagram —
// the non-Linux transport and the fallback for sockets mmsg cannot drive. Like a
// real NIC, send failures (e.g. a crashed peer's closed port) are not
// reported upstream — the chain's repair path owns loss recovery — only
// counted: it reports whether every datagram went out.
func (t *txBatch) sendPortable() bool {
	ok := true
	for _, d := range t.dgrams {
		t.b.sendSyscalls.Add(1)
		if _, err := t.s.conn.WriteToUDP(d, t.addr); err != nil {
			ok = false
			continue
		}
		t.b.sendMessages.Add(1)
	}
	return ok
}

// deliver is a peer proxy's delivery hook (netsim.NodeConfig.Deliver): it
// runs on the goroutine that sent the burst, packs the sender's frames
// through the batching levels and flushes once at the end — the
// sender's burst is the datagram vector, and a single Send is one frame,
// one datagram, one syscall. The frames are borrowed; appendFrame copies
// them into the batch.
func (b *Bridge) deliver(ps *peerState, first []byte, rest [][]byte) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.tx == nil {
		ps.tx = b.newTxBatch(ps.sock, ps.addr)
	}
	ps.tx.pack(first)
	for _, frame := range rest {
		ps.tx.pack(frame)
	}
	ps.tx.flush()
}

// pack adds one frame to the batch and counts it. Burst=1 asks for the
// per-packet transport, so there every frame is flushed on its own.
func (t *txBatch) pack(frame []byte) {
	if err := t.appendFrame(frame); err != nil {
		t.b.oversizeDrops.Add(1)
		return
	}
	t.b.framesOut.Add(1)
	t.b.frameBytesOut.Add(uint64(len(frame)))
	if t.b.cfg.Burst == 1 {
		t.flush()
	}
}

// ---- receive path: datagram vectors → frames → one Inject ----

// rxBatch holds one receive goroutine's preallocated datagram vector: one
// MaxDatagram buffer per slot (so a read can never truncate a well-formed
// datagram, nor a run of them the kernel coalesced), per-slot lengths,
// per-slot segment sizes (non-zero: the slot holds several datagrams, cut
// at multiples of it) and per-slot kernel-truncation flags.
type rxBatch struct {
	bufs   [][]byte
	lens   []int
	segs   []int
	ktrunc []bool
	mm     mmsgRx // platform syscall state (empty off Linux)
}

// newRxBatch sizes a receive vector for this bridge's drain mode.
func (b *Bridge) newRxBatch() *rxBatch {
	k := b.rxDatagramBudget()
	r := &rxBatch{bufs: make([][]byte, k), lens: make([]int, k), segs: make([]int, k), ktrunc: make([]bool, k)}
	for i := range r.bufs {
		r.bufs[i] = make([]byte, MaxDatagram)
	}
	return r
}

// portableRxBudget bounds how many already-queued datagrams the portable
// receive loop drains per wakeup (and thus its buffer footprint); each
// datagram can itself carry a full burst, so a small bound suffices.
func (b *Bridge) portableRxBudget() int {
	k := netsim.MaxBurst(b.cfg.Burst)
	if k > maxDrainDatagrams {
		k = maxDrainDatagrams
	}
	return k
}

// maxDrainDatagrams is the portable receive path's per-wakeup drain bound,
// unchanged from the pre-mmsg transport.
const maxDrainDatagrams = 8

// readBurstPortable is the one-datagram-per-syscall receive path: block
// for one datagram, then drain whatever else the socket already holds
// (non-blocking, Linux; see drain_linux.go). It reports the number of
// datagrams read and false when the socket is closed.
func (b *Bridge) readBurstPortable(s *sock, r *rxBatch) (int, bool) {
	b.recvSyscalls.Add(1)
	n, _, err := s.conn.ReadFromUDP(r.bufs[0])
	if err != nil {
		return 0, false
	}
	r.lens[0] = n
	cnt := 1
	for cnt < len(r.bufs) {
		m, ok := b.tryReadMore(s, r.bufs[cnt])
		if !ok {
			break
		}
		r.lens[cnt] = m
		cnt++
	}
	b.recvMessages.Add(uint64(cnt))
	return cnt, true
}

// udpLoop is one socket's tunnel ingress: it blocks until the socket holds
// datagrams, reads a whole vector of them (one recvmmsg on Linux), unpacks
// every frame, and injects the batch into the local node with one
// Fabric.Inject. The frames alias the read buffers, which the next read
// overwrites: Inject borrows them for the call, and where the local node is
// a replica that call is its pipeline (package comment). Any other node gets
// per-frame copies in its queues. Each SO_REUSEPORT socket runs its own
// udpLoop, so the kernel's flow hash fans inbound peers across goroutines.
func (b *Bridge) udpLoop(s *sock) {
	defer b.wg.Done()
	r := b.newRxBatch()
	frames := make([][]byte, 0, netsim.MaxBurst(b.cfg.Burst))
	for {
		n, ok := b.readBurst(s, r)
		if !ok {
			return
		}
		frames = frames[:0]
		for i := 0; i < n; i++ {
			frames = b.unpack(frames, r.bufs[i][:r.lens[i]], r.segs[i], r.ktrunc[i])
		}
		if len(frames) > 0 {
			b.framesIn.Add(uint64(len(frames)))
			_ = b.fabric.Inject("trans-wan", b.localID, frames)
		}
	}
}

// unpack splits one receive slot into frames, appending them to dst. A
// slot the kernel coalesced (seg > 0, UDP_GRO) is first cut back into its
// wire datagrams at multiples of seg, the last one possibly shorter.
// kernelTrunc marks a slot the kernel cut short (MSG_TRUNC), which damages
// its last datagram only: the complete leading frames are still delivered,
// and the damage is counted once alongside in-record truncation
// (ErrTruncatedDatagram).
func (b *Bridge) unpack(dst [][]byte, slot []byte, seg int, kernelTrunc bool) [][]byte {
	for {
		dgram := slot
		if seg > 0 && len(slot) > seg {
			dgram = slot[:seg]
		}
		slot = slot[len(dgram):]
		b.datagramsIn.Add(1)
		err := SplitFrames(dgram, func(frame []byte) {
			dst = append(dst, frame)
		})
		if err != nil || (kernelTrunc && len(slot) == 0) {
			b.truncatedDatagrams.Add(1)
		}
		if len(slot) == 0 {
			return dst
		}
	}
}

// Close shuts the bridge down. It crashes the proxy nodes first, so later
// sends drop in the fabric without reaching deliver, and then closes the
// sockets, which waits out a sendmmsg in progress and makes a sender parked
// on a full socket buffer return; after Close no frame reaches a socket.
// It returns once the receive loops and control handlers have ended.
func (b *Bridge) Close() {
	b.stopOnce.Do(func() {
		b.mu.Lock()
		ids := make([]netsim.NodeID, 0, len(b.peers))
		for id := range b.peers {
			ids = append(ids, id)
		}
		b.mu.Unlock()
		for _, id := range ids {
			if n := b.fabric.Node(id); n != nil {
				n.Crash()
			}
		}
		for _, s := range b.socks {
			s.conn.Close()
		}
		b.tcp.Close()
	})
	b.wg.Wait()
}

// ---- control plane framing: u32 total | u16 nameLen | name | payload ----
// ---- response: u32 total | u8 status | payload-or-error ----
//
// Control RPCs ride per-call TCP connections, fully independent of the UDP
// data plane: a control call is ordered against data-plane bursts only by
// the protocol's own sequencing (commit vectors, generations), never by
// the transport. See DESIGN.md §8.

func writeRequest(w io.Writer, name string, payload []byte) error {
	total := 2 + len(name) + len(payload)
	hdr := make([]byte, 0, 6+len(name))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(total))
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

func readRequest(r io.Reader) (string, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 2 || total > 64<<20 {
		return "", nil, errors.New("trans: bad request length")
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return "", nil, err
	}
	nameLen := int(binary.BigEndian.Uint16(body[:2]))
	if 2+nameLen > len(body) {
		return "", nil, errors.New("trans: bad name length")
	}
	return string(body[2 : 2+nameLen]), body[2+nameLen:], nil
}

func writeResponse(w io.Writer, status byte, payload []byte) error {
	hdr := make([]byte, 0, 5)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(1+len(payload)))
	hdr = append(hdr, status)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

func readResponse(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 1 || total > 64<<20 {
		return nil, errors.New("trans: bad response length")
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	if body[0] != 0 {
		return nil, fmt.Errorf("trans: remote error: %s", body[1:])
	}
	return body[1:], nil
}

// forwardRPC tunnels one control call to the peer over TCP.
func (b *Bridge) forwardRPC(peerID netsim.NodeID, name string, req []byte) ([]byte, error) {
	b.mu.Lock()
	ps := b.peers[peerID]
	b.mu.Unlock()
	if ps == nil || ps.peer.TCPAddr == "" {
		return nil, fmt.Errorf("trans: no control address for %s", peerID)
	}
	conn, err := net.DialTimeout("tcp", ps.peer.TCPAddr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := writeRequest(conn, name, req); err != nil {
		return nil, err
	}
	return readResponse(conn)
}

// tcpLoop serves inbound control calls by dispatching them to the local
// node's RPC handlers.
func (b *Bridge) tcpLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.tcp.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(60 * time.Second))
			name, payload, err := readRequest(conn)
			if err != nil {
				return
			}
			node := b.fabric.Node(b.localID)
			if node == nil {
				writeResponse(conn, 1, []byte("no local node"))
				return
			}
			resp, err := dispatchLocal(node, name, payload)
			if err != nil {
				writeResponse(conn, 1, []byte(err.Error()))
				return
			}
			writeResponse(conn, 0, resp)
		}()
	}
}

// dispatchLocal invokes a registered RPC handler on the local node.
func dispatchLocal(n *netsim.Node, name string, payload []byte) ([]byte, error) {
	h, ok := n.LookupRPC(name)
	if !ok {
		return nil, fmt.Errorf("trans: no handler %s", name)
	}
	return h("trans-wan", payload)
}
