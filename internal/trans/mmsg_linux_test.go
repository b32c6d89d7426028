//go:build linux

package trans

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"github.com/ftsfc/ftc/internal/netsim"
)

// sizedFrame is a test frame of n bytes: a sequence stamp, then filler.
func sizedFrame(seq uint32, n int) []byte {
	f := bytes.Repeat([]byte{byte(seq) | 1}, n)
	binary.BigEndian.PutUint32(f, seq)
	return f
}

// mixedBurst is n frames of sizes cycling through 8..~190 bytes, so a
// 256-byte budget seals datagrams of unequal length (padding exercised).
func mixedBurst(n int) [][]byte {
	burst := make([][]byte, n)
	for i := range burst {
		burst[i] = sizedFrame(uint32(i), 8+(i*37)%180)
	}
	return burst
}

// stubSendmmsg swaps the sendmmsg syscall for the test's duration.
func stubSendmmsg(t *testing.T, fn func(fd uintptr, msgs []mmsghdr, flags int) (int, syscall.Errno)) {
	t.Helper()
	orig := sendmmsgCall
	sendmmsgCall = func(fd uintptr, msgs *mmsghdr, n, flags int) (int, syscall.Errno) {
		return fn(fd, unsafe.Slice(msgs, n), flags)
	}
	t.Cleanup(func() { sendmmsgCall = orig })
}

// requireSegmentation skips, naming the errno, on a kernel or loopback that
// refuses UDP_SEGMENT, so a segmentation test never passes by falling back.
func requireSegmentation(t *testing.T) {
	t.Helper()
	rig := newProxyRig(t, Config{Sockets: 1, MTUBudget: 64})
	if err := rig.src.SendBurst("dst", [][]byte{sizedFrame(0, 40), sizedFrame(1, 40)}); err != nil {
		t.Fatal(err)
	}
	if mm := &rig.bridge.peers["dst"].tx.mm; mm.plain {
		t.Skipf("kernel refuses UDP_SEGMENT on loopback: %v", mm.errno)
	}
}

// wantInOrder checks that the frames read off the rig's far socket are
// exactly burst, in order, every datagram within budget.
func (rig *proxyRig) wantInOrder(t *testing.T, burst [][]byte, budget int) {
	t.Helper()
	i := 0
	buf := make([]byte, MaxDatagram)
	for i < len(burst) {
		rig.rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		m, _, err := rig.rx.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("frame %d of %d never arrived: %v", i, len(burst), err)
		}
		if m > budget && m > frameHdrLen+len(burst[i]) {
			t.Fatalf("datagram of %d bytes exceeds the %d-byte budget", m, budget)
		}
		if err := SplitFrames(buf[:m], func(f []byte) {
			if i >= len(burst) || !bytes.Equal(f, burst[i]) {
				t.Fatalf("frame %d arrived reordered, duplicated or corrupted (%d bytes)", i, len(f))
			}
			i++
		}); err != nil {
			t.Fatalf("datagram does not split cleanly: %v", err)
		}
	}
}

// wantAtNode checks that a far fabric's node receives exactly burst, in
// order; a watchdog stops the fabric if the frames never come.
func wantAtNode(t *testing.T, fab *netsim.Fabric, node *netsim.Node, burst [][]byte) {
	t.Helper()
	watchdog := time.AfterFunc(5*time.Second, fab.Stop)
	defer watchdog.Stop()
	in := make([]netsim.Inbound, 64)
	for got := 0; got < len(burst); {
		n := node.RecvBurst(0, in)
		if n == 0 {
			t.Fatalf("%d of %d frames arrived", got, len(burst))
		}
		for i := 0; i < n; i++ {
			if got >= len(burst) || !bytes.Equal(in[i].Frame, burst[got]) {
				t.Fatalf("frame %d arrived reordered, duplicated or corrupted", got)
			}
			netsim.ReleaseFrame(in[i].Frame)
			got++
		}
	}
}

// TestCmsgLayout pins the hand-laid control buffers to the kernel's CMSG
// macros on the GOARCH the test runs on (crossbuild vets the others).
func TestCmsgLayout(t *testing.T) {
	if got, want := int(unsafe.Sizeof(segCmsg{})), syscall.CmsgSpace(2); got != want {
		t.Errorf("segCmsg is %d bytes, CMSG_SPACE(2) is %d", got, want)
	}
	if got, want := int(unsafe.Sizeof(groCmsg{})), syscall.CmsgSpace(4); got != want {
		t.Errorf("groCmsg is %d bytes, CMSG_SPACE(4) is %d", got, want)
	}
	if got, want := int(unsafe.Offsetof(segCmsg{}.size)), syscall.CmsgLen(0); got != want {
		t.Errorf("cmsg data at offset %d, CMSG_LEN(0) is %d", got, want)
	}
}

// TestSendmmsgPartialResubmit drives the send loop against a kernel that
// accepts only one message per sendmmsg call (a legal partial return, seen
// in practice when the socket buffer fills mid-vector). The loop must
// resubmit the remainder until the whole vector is out, preserving
// datagram order, instead of silently dropping the tail. Over-budget frames
// between the runs force message boundaries: they travel as plain messages
// of their own.
func TestSendmmsgPartialResubmit(t *testing.T) {
	requireSegmentation(t)
	var calls, msgs, segmented atomic.Int64
	stubSendmmsg(t, func(fd uintptr, m []mmsghdr, flags int) (int, syscall.Errno) {
		calls.Add(1)
		n, e := rawSendmmsg(fd, &m[0], 1, flags)
		if e == 0 {
			msgs.Add(int64(n))
			if m[0].hdr.Controllen != 0 {
				segmented.Add(1)
			}
		}
		return n, e
	})

	const budget = 64
	rig := newProxyRig(t, Config{Sockets: 1, MTUBudget: budget, Burst: 32})
	// Three runs of four one-frame datagrams, an over-budget frame after
	// each of the first two: run, plain, run, plain, run = 5 messages.
	var burst [][]byte
	for i := 0; i < 14; i++ {
		size := 40 + i%3
		if i == 4 || i == 9 {
			size = 200
		}
		burst = append(burst, sizedFrame(uint32(i), size))
	}
	if err := rig.src.SendBurst("dst", burst); err != nil {
		t.Fatal(err)
	}
	if rig.bridge.peers["dst"].tx.mm.fallback {
		t.Fatal("txBatch fell back to the portable path; mmsg not exercised")
	}
	rig.wantInOrder(t, burst, budget)
	if c, m, s := calls.Load(), msgs.Load(), segmented.Load(); c != 5 || m != 5 || s != 3 {
		t.Fatalf("%d sendmmsg calls accepted %d messages, %d segmented; want 5, 5, 3", c, m, s)
	}
	if st := rig.bridge.Stats(); st.DatagramsOut != 14 || st.SendMessages != 5 || st.SendErrors != 0 {
		t.Fatalf("Stats = %d datagrams in %d messages, %d send errors; want 14 in 5, 0",
			st.DatagramsOut, st.SendMessages, st.SendErrors)
	}
}

// TestSegmentedBurstToBridge sends a burst of mixed-size frames through a
// small budget to a far bridge: the sender must segment (fewer messages
// than datagrams), the far side's GRO socket must coalesce (fewer messages
// than datagrams again), and every frame must arrive once, in order, with
// no datagram read as truncated on either side.
func TestSegmentedBurstToBridge(t *testing.T) {
	requireSegmentation(t)
	rxFab := netsim.New(netsim.Config{})
	defer rxFab.Stop()
	rxNode := rxFab.AddNode("dst", netsim.NodeConfig{QueueCap: 256})
	far, err := NewBridge(rxFab, "dst", "", "", nil, Config{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	udp, _ := far.Addrs()

	txFab := netsim.New(netsim.Config{})
	defer txFab.Stop()
	src := txFab.AddNode("src", netsim.NodeConfig{})
	near, err := NewBridge(txFab, "src", "", "", []Peer{{ID: "dst", UDPAddr: udp}}, Config{Sockets: 1, MTUBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()

	burst := mixedBurst(40)
	if err := src.SendBurst("dst", burst); err != nil {
		t.Fatal(err)
	}
	wantAtNode(t, rxFab, rxNode, burst)
	tx, rx := near.Stats(), far.Stats()
	if tx.TruncatedDatagrams != 0 || rx.TruncatedDatagrams != 0 {
		t.Fatalf("truncated datagrams: near %d, far %d", tx.TruncatedDatagrams, rx.TruncatedDatagrams)
	}
	if tx.DatagramsOut <= tx.SendMessages {
		t.Fatalf("%d datagrams left in %d messages: segmentation not engaged", tx.DatagramsOut, tx.SendMessages)
	}
	if rx.DatagramsIn != tx.DatagramsOut || rx.RecvMessages >= rx.DatagramsIn {
		t.Fatalf("far side read %d datagrams in %d messages, %d were sent: GRO not engaged",
			rx.DatagramsIn, rx.RecvMessages, tx.DatagramsOut)
	}
	if tx.WireBytesOut <= tx.FrameBytesOut+frameHdrLen*tx.FramesOut {
		t.Fatalf("WireBytesOut %d does not count padding (%d frame bytes in %d records)",
			tx.WireBytesOut, tx.FrameBytesOut, tx.FramesOut)
	}
}

// TestSegmentedBurstToPlainReceivers sends the same segmented burst to the
// receivers that cannot coalesce — a raw UDP socket and a bridge on the
// portable transport: each must see ordinary packed datagrams, every one
// within budget and splitting cleanly, the padding yielding no frame.
func TestSegmentedBurstToPlainReceivers(t *testing.T) {
	requireSegmentation(t)
	const budget = 256
	burst := mixedBurst(40)

	rig := newProxyRig(t, Config{Sockets: 1, MTUBudget: budget})
	if err := rig.src.SendBurst("dst", burst); err != nil {
		t.Fatal(err)
	}
	rig.wantInOrder(t, burst, budget)
	if st := rig.bridge.Stats(); st.DatagramsOut <= st.SendMessages {
		t.Fatalf("%d datagrams left in %d messages: segmentation not engaged", st.DatagramsOut, st.SendMessages)
	}

	rxFab := netsim.New(netsim.Config{})
	defer rxFab.Stop()
	rxNode := rxFab.AddNode("far", netsim.NodeConfig{QueueCap: 256})
	far, err := NewBridge(rxFab, "far", "", "", nil, Config{portable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	udp, _ := far.Addrs()
	if err := rig.bridge.AddPeer(Peer{ID: "far", UDPAddr: udp}); err != nil {
		t.Fatal(err)
	}
	if err := rig.src.SendBurst("far", burst); err != nil {
		t.Fatal(err)
	}
	wantAtNode(t, rxFab, rxNode, burst)
	if st := far.Stats(); st.TruncatedDatagrams != 0 || st.RecvMessages != st.DatagramsIn {
		t.Fatalf("portable bridge: %d truncated, %d datagrams in %d messages", st.TruncatedDatagrams, st.DatagramsIn, st.RecvMessages)
	}
}

// TestSegmentationRefusedFallsBack stubs a kernel that refuses every
// segmented message — EINVAL (no UDP_SEGMENT, or a segment above the path
// MTU), EMSGSIZE (the same, as newer kernels say it), EIO (no tx-checksum
// offload). The batch must turn segmentation
// off for the peer after exactly one refused attempt, resend the unsent
// remainder as plain messages with nothing dropped or reordered, stay plain
// on later bursts, and try segmentation again once AddPeer re-registers the
// peer.
func TestSegmentationRefusedFallsBack(t *testing.T) {
	for name, errno := range map[string]syscall.Errno{"EINVAL": syscall.EINVAL, "EMSGSIZE": syscall.EMSGSIZE, "EIO": syscall.EIO} {
		t.Run(name, func(t *testing.T) {
			var refused atomic.Int64
			stubSendmmsg(t, func(fd uintptr, m []mmsghdr, flags int) (int, syscall.Errno) {
				// Like the kernel: accept the leading messages, report the
				// errno only when the refused one is first.
				n := 0
				for n < len(m) && m[n].hdr.Controllen == 0 {
					n++
				}
				if n == 0 {
					refused.Add(1)
					return 0, errno
				}
				return rawSendmmsg(fd, &m[0], n, flags)
			})
			const budget = 64
			rig := newProxyRig(t, Config{Sockets: 1, MTUBudget: budget})
			// An over-budget frame first, so the refused message is not the
			// vector's first: the plain message before it is accepted, then
			// the remainder is relaid.
			burst := [][]byte{sizedFrame(0, 200)}
			for i := 1; i < 12; i++ {
				burst = append(burst, sizedFrame(uint32(i), 40+i%3))
			}
			for round := 0; round < 2; round++ {
				if err := rig.src.SendBurst("dst", burst); err != nil {
					t.Fatal(err)
				}
				rig.wantInOrder(t, burst, budget)
				if got := refused.Load(); got != 1 {
					t.Fatalf("round %d: %d refused attempts, want exactly 1 per peer", round, got)
				}
			}
			if st := rig.bridge.Stats(); st.SendMessages != st.DatagramsOut || st.SendErrors != 0 {
				t.Fatalf("after refusal: %d datagrams in %d messages, %d send errors; want plain layout, 0 errors",
					st.DatagramsOut, st.SendMessages, st.SendErrors)
			}
			if err := rig.bridge.AddPeer(Peer{ID: "dst", UDPAddr: rig.rx.LocalAddr().String()}); err != nil {
				t.Fatal(err)
			}
			if err := rig.src.SendBurst("dst", burst); err != nil {
				t.Fatal(err)
			}
			rig.wantInOrder(t, burst, budget)
			if got := refused.Load(); got != 2 {
				t.Fatalf("%d refused attempts after re-registration, want 2 (segmentation retried once)", got)
			}
		})
	}
}

// TestPlainLayoutWhereNothingToSegment pins the two input-driven routes to
// the plain layout: a flush of a single datagram (light load, Burst == 1)
// and a datagram above the budget each travel as an ordinary message with
// no control data.
func TestPlainLayoutWhereNothingToSegment(t *testing.T) {
	var segmented atomic.Int64
	stubSendmmsg(t, func(fd uintptr, m []mmsghdr, flags int) (int, syscall.Errno) {
		for i := range m {
			if m[i].hdr.Controllen != 0 {
				segmented.Add(1)
			}
		}
		return rawSendmmsg(fd, &m[0], len(m), flags)
	})
	const budget = 64
	for _, burstCfg := range []int{0, 1} {
		rig := newProxyRig(t, Config{Sockets: 1, MTUBudget: budget, Burst: burstCfg})
		burst := [][]byte{sizedFrame(0, 200), sizedFrame(1, 300), sizedFrame(2, 400)}
		if burstCfg == 1 {
			burst = mixedBurst(8)[1:] // small frames, each flushed alone
		}
		if err := rig.src.SendBurst("dst", burst); err != nil {
			t.Fatal(err)
		}
		if err := rig.src.Send("dst", burst[0]); err != nil {
			t.Fatal(err)
		}
		rig.wantInOrder(t, append(burst, burst[0]), 256)
		if st := rig.bridge.Stats(); st.SendMessages != st.DatagramsOut || st.DatagramsOut != uint64(len(burst)+1) {
			t.Fatalf("Burst=%d: %d datagrams in %d messages, want %d in as many", burstCfg, st.DatagramsOut, st.SendMessages, len(burst)+1)
		}
	}
	if n := segmented.Load(); n != 0 {
		t.Fatalf("%d segmented messages where every datagram stands alone", n)
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
	b := &Bridge{cfg: Config{}.WithDefaults()}

	// Undersized receive slots: production uses MaxDatagram (truncation
	// impossible for well-formed traffic), so the kernel path is provoked
	// directly.
	r := &rxBatch{bufs: make([][]byte, 4), lens: make([]int, 4), segs: make([]int, 4), ktrunc: make([]bool, 4)}
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
	frames = b.unpack(frames, r.bufs[0][:r.lens[0]], r.segs[0], r.ktrunc[0])
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
