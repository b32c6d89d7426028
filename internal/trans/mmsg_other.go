//go:build !linux

// Portable fallbacks for the Linux batched-syscall backend (mmsg_linux.go):
// one socket, one sendto per datagram, one blocking read per wakeup — the
// pre-mmsg transport. The packed-datagram wire format is identical, so a
// non-Linux process interoperates with mmsg peers; only the syscall
// amortization, the segmented messages and the SO_REUSEPORT receive fan-out
// are Linux specializations. This file deliberately uses no raw syscalls so
// every GOOS the stdlib's net package supports keeps building (the
// cross-compile CI gate holds it to that).

package trans

import "net"

// reuseportSupported gates Config.Sockets: without the Linux fast path the
// bridge runs one socket, so WithDefaults clamps Sockets to 1.
const reuseportSupported = false

// mmsgTx is the empty placeholder for the Linux sendmmsg state.
type mmsgTx struct{}

// mmsgRx is the empty placeholder for the Linux recvmmsg state.
type mmsgRx struct{}

// initPlatform is a no-op: the portable txBatch always sends one datagram
// per syscall.
func (t *txBatch) initPlatform() {}

// send ships the sealed vector through the portable per-datagram path.
func (t *txBatch) send() bool { return t.sendPortable() }

// enableGRO is a no-op: only the Linux recvmmsg path can split a coalesced
// read.
func (s *sock) enableGRO() {}

// readBurst reads datagrams the portable way: one blocking read, then the
// (stubbed, see drain_other.go) non-blocking drain.
func (b *Bridge) readBurst(s *sock, r *rxBatch) (int, bool) {
	return b.readBurstPortable(s, r)
}

// rxDatagramBudget sizes the portable receive vector.
func (b *Bridge) rxDatagramBudget() int { return b.portableRxBudget() }

// listenUDPSockets binds the single portable data-plane socket; n is
// already clamped to 1 by Config.WithDefaults on !linux.
func listenUDPSockets(addr string, n int) ([]*net.UDPConn, error) {
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

// sockBufSizes reports no effective-buffer readback off Linux; Stats
// exposes zeros and tuning docs fall back to OS defaults.
func sockBufSizes(c *net.UDPConn) (rcv, snd int) { return 0, 0 }
