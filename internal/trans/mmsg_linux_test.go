//go:build linux

package trans

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// TestSendmmsgPartialResubmit drives the send loop against a kernel that
// accepts only one message per sendmmsg call (a legal partial return, seen
// in practice when the socket buffer fills mid-vector). The loop must
// resubmit the remainder until the whole vector is out, preserving
// datagram order, instead of silently dropping the tail.
func TestSendmmsgPartialResubmit(t *testing.T) {
	var calls atomic.Int64
	orig := sendmmsgCall
	sendmmsgCall = func(fd uintptr, msgs *mmsghdr, n, flags int) (int, syscall.Errno) {
		calls.Add(1)
		if n > 1 {
			n = 1
		}
		return rawSendmmsg(fd, msgs, n, flags)
	}
	defer func() { sendmmsgCall = orig }()

	// A tiny MTU budget forces one frame per datagram, so one burst seals
	// a multi-datagram vector and the clamped kernel must be re-entered.
	rig := newProxyRig(t, Config{Sockets: 1, MTUBudget: 64, Burst: 32})
	rx := rig.rx

	const n = 10
	want := make([]string, n)
	burst := make([][]byte, n)
	for i := 0; i < n; i++ {
		want[i] = fmt.Sprintf("resubmit-frame-%02d-payload-0123456789", i)
		burst[i] = []byte(want[i])
	}
	if err := rig.src.SendBurst("dst", burst); err != nil {
		t.Fatal(err)
	}
	if rig.bridge.peers["dst"].tx.mm.fallback {
		t.Fatal("txBatch fell back to the portable path; mmsg not exercised")
	}

	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, MaxDatagram)
	for i := 0; i < n; i++ {
		m, _, err := rx.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("datagram %d of %d never arrived: %v", i, n, err)
		}
		var got string
		if err := SplitFrames(buf[:m], func(f []byte) { got = string(f) }); err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("datagram %d = %q, want %q (resubmit reordered or dropped)", i, got, want[i])
		}
	}
	if c := calls.Load(); c < n {
		t.Fatalf("sendmmsg called %d times; a 1-message-per-call kernel needs >= %d", c, n)
	}
}

// TestRecvmmsgKernelTruncation feeds a datagram bigger than its receive
// slot, so the kernel cuts it short and raises MSG_TRUNC. The bridge must
// flag the datagram, still deliver its complete leading frames, and count
// the damage exactly once (kernel truncation and the in-record
// ErrTruncatedDatagram it causes are one event, not two).
func TestRecvmmsgKernelTruncation(t *testing.T) {
	rxConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxConn.Close()
	raw, err := rxConn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	s := &sock{conn: rxConn, raw: raw}
	b := &Bridge{cfg: Config{}.withDefaults()}

	// Undersized receive slots: production uses MaxDatagram (truncation
	// impossible for well-formed traffic), so the kernel path is provoked
	// directly.
	r := &rxBatch{bufs: make([][]byte, 4), lens: make([]int, 4), ktrunc: make([]bool, 4)}
	for i := range r.bufs {
		r.bufs[i] = make([]byte, 32)
	}

	tx, err := net.Dial("udp", rxConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	// Five 10-byte frames = 60 packed bytes; a 32-byte slot keeps two
	// complete 12-byte records plus 8 bytes of the third.
	var dgram []byte
	for i := 0; i < 5; i++ {
		if dgram, err = AppendFrame(dgram, []byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Write(dgram); err != nil {
		t.Fatal(err)
	}

	n, ok := b.readBurst(s, r)
	if !ok || n != 1 {
		t.Fatalf("readBurst = %d, %v", n, ok)
	}
	if r.lens[0] != 32 {
		t.Fatalf("truncated length = %d, want 32", r.lens[0])
	}
	if !r.ktrunc[0] {
		t.Fatal("MSG_TRUNC not reported on kernel-truncated datagram")
	}
	var frames [][]byte
	frames = b.unpack(frames, r.bufs[0][:r.lens[0]], r.ktrunc[0])
	if len(frames) != 2 {
		t.Fatalf("delivered %d leading frames, want 2", len(frames))
	}
	for i, f := range frames {
		if want := fmt.Sprintf("frame-%03d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
	if got := b.truncatedDatagrams.Load(); got != 1 {
		t.Fatalf("TruncatedDatagrams = %d, want exactly 1", got)
	}
	if got := b.datagramsIn.Load(); got != 1 {
		t.Fatalf("DatagramsIn = %d, want 1", got)
	}
}

// TestReusePortSocketsBoundSamePort checks the RSS group invariant peers
// rely on: every socket in the SO_REUSEPORT group shares the one bound
// address, so Addrs() needs no socket-count awareness.
func TestReusePortSocketsBoundSamePort(t *testing.T) {
	fabric := netsim.New(netsim.Config{})
	defer fabric.Stop()
	fabric.AddNode("n", netsim.NodeConfig{})
	b, err := NewBridge(fabric, "n", "", "", nil, Config{Sockets: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Stats().Sockets; got != 4 {
		t.Fatalf("Stats.Sockets = %d, want 4", got)
	}
	udp, _ := b.Addrs()
	for i, s := range b.socks {
		if a := s.conn.LocalAddr().String(); a != udp {
			t.Fatalf("socket %d bound to %s, group address %s", i, a, udp)
		}
	}
}
