//go:build linux

// Linux batched-syscall backend for the bridge data plane: sendmmsg and
// recvmmsg move whole vectors of packed datagrams per syscall — the
// userspace analogue of the paper's DPDK rx/tx bursts — a run of datagrams
// within a vector crosses the UDP/IP stack as one segmented message
// (UDP_SEGMENT on send, UDP_GRO on receive), and SO_REUSEPORT lets the
// kernel hash inbound flows across one socket (and one receive goroutine)
// per worker. All mmsghdr/iovec/control arrays, sockaddr storage, and the
// raw-connection callbacks are preallocated, so the steady-state tx/rx
// loops issue raw syscall.Syscall6 calls with zero allocations.
//
// The syscall numbers and struct layouts are stable kernel ABI: mmsghdr is
// msghdr plus a u32 received-length, padded to the platform's msghdr
// alignment, which Go's struct layout reproduces on every linux GOARCH.

package trans

import (
	"context"
	"net"
	"syscall"
	"unsafe"
)

// reuseportSupported gates Config.Sockets > 1: on Linux the kernel
// load-balances a SO_REUSEPORT group by 4-tuple hash.
const reuseportSupported = true

// soReusePort is SO_REUSEPORT (asm-generic value 15, shared by every
// GOARCH this repo targets; Go's frozen syscall package predates the
// constant). MIPS would need 0x0200.
const soReusePort = 0xf

// UDP segmentation offload (Go's frozen syscall package predates it): the
// socket level, the UDP_SEGMENT control message a segmented send carries
// (kernel 4.18), the UDP_GRO option and control message of a coalesced
// receive (kernel 5.0), and the kernel's limits on one segmented message —
// UDP_MAX_SEGMENTS segments and one IPv4 datagram's worth of payload.
const (
	solUDP         = 17
	udpSegment     = 103
	udpGRO         = 104
	udpMaxSegments = 64
	maxUDPPayload  = 65507
)

// segCmsg and groCmsg are whole control buffers of one message each: the
// UDP_SEGMENT request (u16 segment size) and the UDP_GRO report (int). Go
// lays them out as CMSG_SPACE does on every linux GOARCH: the data starts
// at the header's size and the struct is padded to the header's alignment.
type segCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
}

type groCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
}

// enableGRO lets the kernel hand a run of equal-sized datagrams from one
// peer to recvmmsg as one coalesced message (readBurst cuts it back apart).
// Only a socket the recvmmsg path reads may have it: a portable read gets
// no control message and could not tell a coalesced payload from a
// datagram. A kernel without the option just keeps delivering datagrams.
func (s *sock) enableGRO() {
	if s.raw != nil {
		_ = s.raw.Control(func(fd uintptr) {
			_ = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
		})
	}
}

// recvBatchDatagrams is the datagram-vector capacity of one recvmmsg call.
// Each datagram can carry a full frame burst, so a modest vector already
// amortizes the wakeup and syscall cost deep into the megapacket range.
const recvBatchDatagrams = 32

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the per-
// message byte count recvmmsg/sendmmsg report back.
type mmsghdr struct {
	hdr syscall.Msghdr
	cnt uint32
}

// sendmmsgCall and recvmmsgCall are the raw syscalls, indirected so tests
// can inject partial-progress kernels (sendmmsg legitimately accepts any
// k ≤ n messages; the send loop must resubmit the remainder).
var (
	sendmmsgCall = rawSendmmsg
	recvmmsgCall = rawRecvmmsg
)

// rawSendmmsg issues sendmmsg(fd, msgs[:n], flags) and reports how many
// leading messages the kernel accepted.
func rawSendmmsg(fd uintptr, msgs *mmsghdr, n, flags int) (int, syscall.Errno) {
	r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(msgs)), uintptr(n), uintptr(flags), 0, 0)
	return int(r), e
}

// rawRecvmmsg issues recvmmsg(fd, msgs[:n], flags, nil) and reports how
// many messages the kernel filled.
func rawRecvmmsg(fd uintptr, msgs *mmsghdr, n, flags int) (int, syscall.Errno) {
	r, _, e := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(msgs)), uintptr(n), uintptr(flags), 0, 0)
	return int(r), e
}

// listenUDPSockets binds n UDP sockets to one address. n > 1 joins them in
// a SO_REUSEPORT group (the option is set before every bind, including the
// first): the first socket may pick an ephemeral port, the rest bind to
// the resolved concrete address.
func listenUDPSockets(addr string, n int) ([]*net.UDPConn, error) {
	if n <= 1 {
		uaddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		uc, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{uc}, nil
	}
	lc := net.ListenConfig{Control: setReusePort}
	conns := make([]*net.UDPConn, 0, n)
	fail := func(err error) ([]*net.UDPConn, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return fail(err)
	}
	conns = append(conns, pc.(*net.UDPConn))
	bound := conns[0].LocalAddr().String()
	for len(conns) < n {
		pc, err := lc.ListenPacket(context.Background(), "udp", bound)
		if err != nil {
			return fail(err)
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	return conns, nil
}

// setReusePort is the ListenConfig control hook joining a socket to the
// address's SO_REUSEPORT group before bind.
func setReusePort(network, address string, rc syscall.RawConn) error {
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}

// sockBufSizes reads back the kernel's effective SO_RCVBUF/SO_SNDBUF — the
// truth behind Config.SocketBuf requests, which the kernel silently clamps
// to its rmem/wmem caps (and doubles for bookkeeping overhead).
func sockBufSizes(c *net.UDPConn) (rcv, snd int) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, 0
	}
	_ = rc.Control(func(fd uintptr) {
		rcv, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	})
	return rcv, snd
}

// mmsgTx is a txBatch's preallocated sendmmsg state: one mmsghdr, iovec
// and UDP_SEGMENT control buffer per datagram slot, all naming the peer's
// packed sockaddr, plus the saved raw-write callback (allocated once so
// steady-state sends allocate nothing).
type mmsgTx struct {
	msgs     []mmsghdr
	iovs     []syscall.Iovec          // one per datagram; a message owns a run of them
	ctl      []segCmsg                // one per message
	sa       syscall.RawSockaddrInet6 // storage; v4 peers use a prefix
	salen    uint32
	off, cnt int           // message window being submitted
	res      int           // messages accepted by the last syscall (-1: hard error)
	errno    syscall.Errno // that hard error
	plain    bool          // the kernel refused a segmented message for this peer
	writeFn  func(fd uintptr) bool
	fallback bool // no raw conn or sockaddr unpackable: use sendPortable
}

// initPlatform prepares a txBatch's sendmmsg vector for its peer, falling
// back to the portable per-datagram path when the socket has no raw
// connection or the peer's sockaddr cannot be packed (e.g. a zoned
// link-local address).
func (t *txBatch) initPlatform() {
	if t.b.cfg.portable || t.s == nil || t.s.raw == nil || !t.packSockaddr() {
		t.mm.fallback = true
		return
	}
	k := len(t.bufs)
	t.mm.msgs = make([]mmsghdr, k)
	t.mm.iovs = make([]syscall.Iovec, k)
	t.mm.ctl = make([]segCmsg, k)
	for i := range t.mm.msgs {
		t.mm.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&t.mm.sa))
		t.mm.msgs[i].hdr.Namelen = t.mm.salen
		t.mm.ctl[i].hdr.Level, t.mm.ctl[i].hdr.Type = solUDP, udpSegment
		t.mm.ctl[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	t.mm.writeFn = func(fd uintptr) bool {
		n, e := sendmmsgCall(fd, &t.mm.msgs[t.mm.off], t.mm.cnt-t.mm.off, syscall.MSG_DONTWAIT)
		t.b.sendSyscalls.Add(1)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			return false // socket buffer full: park until writable
		}
		if e != 0 {
			t.mm.res, t.mm.errno = -1, e
			return true
		}
		t.mm.res = n
		return true
	}
}

// packSockaddr renders the peer's address into the batch's raw sockaddr
// storage, matched to the local socket's family (a v4 peer behind a
// dual-stack v6 socket becomes v4-mapped). It reports false when the
// address cannot be represented, which routes the batch to the portable
// send path instead of black-holing datagrams.
func (t *txBatch) packSockaddr() bool {
	local, _ := t.s.conn.LocalAddr().(*net.UDPAddr)
	port := t.addr.Port
	if port < 0 || port > 0xffff {
		return false
	}
	nport := uint16(port>>8) | uint16(port&0xff)<<8 // network byte order
	if local != nil && local.IP.To4() != nil {
		ip4 := t.addr.IP.To4()
		if ip4 == nil {
			return false
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&t.mm.sa))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: nport}
		copy(sa.Addr[:], ip4)
		t.mm.salen = syscall.SizeofSockaddrInet4
		return true
	}
	ip16 := t.addr.IP.To16()
	if ip16 == nil || t.addr.Zone != "" {
		return false
	}
	t.mm.sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: nport}
	copy(t.mm.sa.Addr[:], ip16)
	t.mm.salen = syscall.SizeofSockaddrInet6
	return true
}

// layout builds the sendmmsg messages for dgrams[from:]. A run of
// consecutive datagrams becomes one message with an iovec per datagram and
// a UDP_SEGMENT control message: the kernel builds one packet, takes it
// down the stack once and cuts it every segment-size bytes. The segment
// size is the run's largest datagram and every datagram but the run's last
// is zero-padded up to it in its slot, so the cuts fall on datagram
// boundaries and each wire datagram still decodes on its own (frame.go); a
// datagram was sealed because the next record did not fit, so its padding
// is smaller than that record. A run ends at the kernel's limits and at a
// datagram above the MTU budget (a lone oversize frame, left to IP
// fragmentation: a segment above the path MTU is EINVAL); that one, a run
// of one, and everything once the peer is marked plain travel as ordinary
// one-datagram messages.
func (t *txBatch) layout(from int) {
	mm := &t.mm
	mm.off, mm.cnt = 0, 0
	for i := from; i < len(t.dgrams); mm.cnt++ {
		h := &mm.msgs[mm.cnt].hdr
		h.Iov, h.Iovlen, h.Control = &mm.iovs[i], 1, nil
		h.SetControllen(0)
		// Iovlen is a size_t whose Go type differs by GOARCH (and has no
		// setter), so the run counts it up instead of assigning an int.
		n, seg := 1, len(t.dgrams[i])
		for ; !mm.plain && seg <= t.budget && i+n < len(t.dgrams) && n < udpMaxSegments; n++ {
			next := len(t.dgrams[i+n])
			if next > t.budget || max(seg, next)*n+next > maxUDPPayload {
				break
			}
			seg = max(seg, next)
			h.Iovlen++
		}
		if n > 1 {
			for j := i; j < i+n-1; j++ {
				d := t.dgrams[j]
				clear(d[len(d):seg])
				t.dgrams[j] = d[:seg]
			}
			mm.ctl[mm.cnt].size = uint16(seg)
			h.Control = (*byte)(unsafe.Pointer(&mm.ctl[mm.cnt]))
			h.SetControllen(int(unsafe.Sizeof(mm.ctl[0])))
		}
		for end := i + n; i < end; i++ {
			d := t.dgrams[i]
			mm.iovs[i].Base = &d[0]
			mm.iovs[i].SetLen(len(d))
		}
	}
}

// send ships the sealed datagram vector with as few sendmmsg calls as the
// kernel allows: a partial acceptance (k < n messages) resubmits the
// remainder, preserving datagram order. A kernel that refuses a segmented
// message (EINVAL: kernel < 4.18; EINVAL or, on newer kernels, EMSGSIZE:
// the segment exceeds the path MTU; EIO: no tx-checksum offload) marks the
// peer plain until AddPeer re-registers it, and the unsent remainder is
// laid out again as plain messages and resubmitted. Other hard errors drop
// the rest of the vector, matching the portable path's NIC-like no-report
// semantics; it reports whether everything went out.
func (t *txBatch) send() bool {
	if t.mm.fallback {
		return t.sendPortable()
	}
	sent := 0 // datagrams accepted so far
	t.layout(0)
	for t.mm.off < t.mm.cnt {
		t.mm.res = 0
		if err := t.s.raw.Write(t.mm.writeFn); err != nil {
			return false // socket closed mid-shutdown
		}
		if t.mm.res < 0 && t.mm.msgs[t.mm.off].hdr.Controllen != 0 {
			switch t.mm.errno {
			case syscall.EINVAL, syscall.EMSGSIZE, syscall.EIO:
				t.mm.plain = true
				t.layout(sent)
				continue
			}
		}
		if t.mm.res <= 0 {
			return false
		}
		t.b.sendMessages.Add(uint64(t.mm.res))
		for end := t.mm.off + t.mm.res; t.mm.off < end; t.mm.off++ {
			sent += int(t.mm.msgs[t.mm.off].hdr.Iovlen)
		}
	}
	return true
}

// mmsgRx is a receive goroutine's preallocated recvmmsg state: one
// mmsghdr, iovec and UDP_GRO control buffer per datagram slot plus the
// saved raw-read callback.
type mmsgRx struct {
	msgs   []mmsghdr
	iovs   []syscall.Iovec
	ctl    []groCmsg
	res    int // messages filled by the last syscall (-1: hard error)
	readFn func(fd uintptr) bool
}

// initMMsg wires an rxBatch's vector to one socket's receive loop.
func (r *rxBatch) initMMsg(b *Bridge, s *sock) {
	k := len(r.bufs)
	r.mm.msgs = make([]mmsghdr, k)
	r.mm.iovs = make([]syscall.Iovec, k)
	r.mm.ctl = make([]groCmsg, k)
	for i := range r.mm.msgs {
		r.mm.iovs[i].Base = &r.bufs[i][0]
		r.mm.iovs[i].SetLen(len(r.bufs[i]))
		r.mm.msgs[i].hdr.Iov = &r.mm.iovs[i]
		r.mm.msgs[i].hdr.Iovlen = 1
		r.mm.msgs[i].hdr.Control = (*byte)(unsafe.Pointer(&r.mm.ctl[i]))
		r.mm.msgs[i].hdr.SetControllen(int(unsafe.Sizeof(r.mm.ctl[i])))
	}
	r.mm.readFn = func(fd uintptr) bool {
		n, e := recvmmsgCall(fd, &r.mm.msgs[0], len(r.mm.msgs), syscall.MSG_DONTWAIT)
		b.recvSyscalls.Add(1)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			return false // nothing queued: park until readable
		}
		if e != 0 {
			r.mm.res = -1
			return true
		}
		r.mm.res = n
		return true
	}
}

// readBurst fills the receive vector with one blocking-equivalent recvmmsg
// (the raw read parks on the netpoller until the socket holds datagrams,
// then scoops up to the whole vector in one syscall); a slot may hold a
// whole coalesced run of datagrams, which unpack cuts apart. Raw-connection
// failures degrade to the portable one-datagram reads.
func (b *Bridge) readBurst(s *sock, r *rxBatch) (int, bool) {
	if b.cfg.portable || s.raw == nil {
		return b.readBurstPortable(s, r)
	}
	if r.mm.readFn == nil {
		r.initMMsg(b, s)
	}
	r.mm.res = 0
	if err := s.raw.Read(r.mm.readFn); err != nil {
		return 0, false
	}
	if r.mm.res <= 0 {
		return 0, false
	}
	n := r.mm.res
	b.recvMessages.Add(uint64(n))
	for i := 0; i < n; i++ {
		h, c := &r.mm.msgs[i].hdr, &r.mm.ctl[i]
		r.lens[i] = int(r.mm.msgs[i].cnt)
		r.ktrunc[i] = h.Flags&syscall.MSG_TRUNC != 0
		// A coalesced slot says so in a UDP_GRO control message. The kernel
		// overwrote Controllen with what it wrote: re-arm it for the next call.
		r.segs[i] = 0
		if int(h.Controllen) >= syscall.CmsgLen(4) && c.hdr.Level == solUDP && c.hdr.Type == udpGRO {
			r.segs[i] = int(c.size)
		}
		h.SetControllen(int(unsafe.Sizeof(*c)))
	}
	return n, true
}

// rxDatagramBudget sizes the receive vector: the full recvmmsg vector on
// the mmsg path, the portable drain bound when tests force that path.
func (b *Bridge) rxDatagramBudget() int {
	if b.cfg.portable {
		return b.portableRxBudget()
	}
	return recvBatchDatagrams
}
