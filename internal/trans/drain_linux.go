//go:build linux

package trans

import "syscall"

// tryReadMore performs one non-blocking read of an already-queued datagram
// into p, reporting its length and whether one was available. It is the
// drain half of the portable receive path's one-wakeup-per-burst
// discipline: after the blocking read returns the first datagram,
// MSG_DONTWAIT recvfrom calls scoop up whatever else the socket buffer
// holds without ever sleeping. The default Linux path batches far harder
// with recvmmsg (mmsg_linux.go); this runs only when that path cannot (no
// raw connection) or a test forces the portable transport. Every probe — including the final EAGAIN — is a
// real syscall and is counted as one.
func (b *Bridge) tryReadMore(s *sock, p []byte) (int, bool) {
	if s.raw == nil {
		return 0, false
	}
	var n int
	var serr error
	err := s.raw.Read(func(fd uintptr) bool {
		b.recvSyscalls.Add(1)
		n, _, serr = syscall.Recvfrom(int(fd), p, syscall.MSG_DONTWAIT)
		// Always done: EAGAIN means "drained", not "wait for more".
		return true
	})
	if err != nil || serr != nil || n <= 0 {
		return 0, false
	}
	return n, true
}
