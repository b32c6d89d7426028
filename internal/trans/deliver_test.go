package trans

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// proxyRig is a one-node fabric whose bridge has a single peer, "dst": a
// plain UDP socket the test reads (or leaves unread), so what a send to the
// proxy puts on the wire is observed directly.
type proxyRig struct {
	fabric *netsim.Fabric
	src    *netsim.Node
	bridge *Bridge
	rx     *net.UDPConn
}

func newProxyRig(t *testing.T, cfg Config) *proxyRig {
	t.Helper()
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	_ = rx.SetReadBuffer(4 << 20) // best effort; the tests pace or tolerate drops
	fabric := netsim.New(netsim.Config{})
	t.Cleanup(fabric.Stop)
	src := fabric.AddNode("src", netsim.NodeConfig{})
	b, err := NewBridge(fabric, "src", "", "", []Peer{{ID: "dst", UDPAddr: rx.LocalAddr().String()}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return &proxyRig{fabric: fabric, src: src, bridge: b, rx: rx}
}

// stamped is an 8-byte test frame: sender, then that sender's sequence.
func stamped(sender, seq uint32) []byte {
	f := make([]byte, 8)
	binary.BigEndian.PutUint32(f[0:4], sender)
	binary.BigEndian.PutUint32(f[4:8], seq)
	return f
}

// readFrames reads datagrams off rx until the socket has been quiet for
// idle (or for ten seconds, if it never goes quiet), handing every tunneled
// frame to fn, and returns how many it saw.
func (rig *proxyRig) readFrames(t *testing.T, idle time.Duration, fn func(frame []byte)) int {
	t.Helper()
	buf := make([]byte, MaxDatagram)
	frames := 0
	for start := time.Now(); time.Since(start) < 10*time.Second; {
		rig.rx.SetReadDeadline(time.Now().Add(idle))
		n, _, err := rig.rx.ReadFromUDP(buf)
		if err != nil {
			return frames
		}
		if err := SplitFrames(buf[:n], func(frame []byte) {
			frames++
			if fn != nil {
				fn(frame)
			}
		}); err != nil {
			t.Errorf("malformed datagram on the wire: %v", err)
		}
	}
	return frames
}

// TestProxyConcurrentSendersFIFO is the ordering contract of the send path
// now that it has no queue and no goroutine of its own: four goroutines send
// sequence-stamped frames to one proxy (bursts of 1–32 and single Sends)
// while a fifth keeps re-registering the peer, which swaps the batch out
// from under them. The peer's mutex, held across pack and flush, is all that
// orders them: the far side must see every frame exactly once and each
// sender's frames in order.
func TestProxyConcurrentSendersFIFO(t *testing.T) {
	const (
		senders   = 4
		perSender = 2000
		window    = 512 // frames in flight; keeps the far socket's buffer from overflowing
	)
	rig := newProxyRig(t, Config{SocketBuf: 4 << 20})
	addr := rig.rx.LocalAddr().String()

	var received atomic.Int64
	next := make([]uint32, senders) // next sequence expected per sender; reader-owned
	var violations atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, MaxDatagram)
		for received.Load() < senders*perSender {
			rig.rx.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, _, err := rig.rx.ReadFromUDP(buf)
			if err != nil {
				return
			}
			_ = SplitFrames(buf[:n], func(f []byte) {
				sender, seq := binary.BigEndian.Uint32(f[0:4]), binary.BigEndian.Uint32(f[4:8])
				if sender >= senders || seq != next[sender] {
					violations.Add(1)
				} else {
					next[sender]++
				}
				received.Add(1)
			})
		}
	}()

	var sent atomic.Int64
	var wg sync.WaitGroup
	for sid := uint32(0); sid < senders; sid++ {
		wg.Add(1)
		go func(sid uint32) {
			defer wg.Done()
			seq := uint32(0)
			for round := 0; seq < perSender; round++ {
				for sent.Load()-received.Load() > window {
					time.Sleep(50 * time.Microsecond)
				}
				size := 1 + (round*7+int(sid))%32
				if rem := int(perSender - seq); size > rem {
					size = rem
				}
				sent.Add(int64(size))
				if round%5 == 4 {
					// Single Sends, the hook's nil-rest shape.
					for i := 0; i < size; i++ {
						if err := rig.src.Send("dst", stamped(sid, seq)); err != nil {
							t.Error(err)
							return
						}
						seq++
					}
					continue
				}
				burst := make([][]byte, size)
				for i := range burst {
					burst[i] = stamped(sid, seq)
					seq++
				}
				if err := rig.src.SendBurst("dst", burst); err != nil {
					t.Error(err)
					return
				}
			}
		}(sid)
	}
	stopReg := make(chan struct{})
	regDone := make(chan struct{})
	go func() {
		defer close(regDone)
		for {
			select {
			case <-stopReg:
				return
			default:
			}
			if err := rig.bridge.AddPeer(Peer{ID: "dst", UDPAddr: addr}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stopReg)
	<-regDone
	<-readerDone

	if got := received.Load(); got != senders*perSender {
		t.Fatalf("far side saw %d frames, want %d", got, senders*perSender)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d frames arrived duplicated or out of their sender's order", v)
	}
	if st := rig.bridge.Stats(); st.FramesOut != senders*perSender || st.OversizeDrops != 0 {
		t.Fatalf("Stats = %d frames out, %d oversize drops", st.FramesOut, st.OversizeDrops)
	}
}

// TestBridgeCloseUnderSendLoad closes a bridge while senders hammer its
// proxy: Close must return promptly (it crashes the proxy, then closes the
// sockets, which waits out the sendmmsg in progress), and once it has
// returned no frame may reach a socket however long the senders keep going.
func TestBridgeCloseUnderSendLoad(t *testing.T) {
	rig := newProxyRig(t, Config{SocketBuf: 4 << 20})
	burst := make([][]byte, 32)
	for i := range burst {
		burst[i] = make([]byte, 256)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the fabric's view of the proxy is
				// gone; what must not happen is a panic or a hang.
				_ = rig.src.SendBurst("dst", burst)
				_ = rig.src.Send("dst", burst[0])
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // the senders are on the wire when Close lands

	closed := make(chan struct{})
	go func() {
		rig.bridge.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1s under send load")
	}
	// Loopback sends land in the far socket's buffer synchronously, so once
	// that is drained anything further was sent after Close returned.
	if n := rig.readFrames(t, 100*time.Millisecond, nil); n == 0 {
		t.Fatal("no frame reached the wire before Close")
	}
	time.Sleep(50 * time.Millisecond) // senders still running against the closed bridge
	if n := rig.readFrames(t, 100*time.Millisecond, nil); n != 0 {
		t.Fatalf("%d frames reached the wire after Close returned", n)
	}
	close(stop)
	wg.Wait()
}

// TestStopAndCloseUnderIngestLoad shuts replicas and bridges down while
// traffic pours in over the sockets. The receive goroutines are the
// replica's workers, so Close waits on goroutines that are inside the
// pipeline, and Stop on ingests it never started: no goroutine waits on a
// log that was lost with the peer (the frame parks instead), so both return
// within 200 ms in either order, and once Stop has returned the replica
// processes nothing more although its bridge keeps reading — those bursts
// are dropped in the fabric, and counted.
func TestStopAndCloseUnderIngestLoad(t *testing.T) {
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sinkConn.Close()
	sinkFrames(t, sinkConn)
	procs, _ := startChainProcs(t, 2, chainOpts{egressAddr: sinkConn.LocalAddr().String(), newMB: flowChainMBs})
	ingressAddr, _ := procs[0].bridge.Addrs()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("udp", ingressAddr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := g; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				// Write errors are expected once the far socket is closed.
				_, _ = conn.Write(packFrame(t, buildIngressFrame(t, i)))
				if i%64 < 2 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(g)
	}
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(200 * time.Millisecond):
			t.Fatalf("%s did not return within 200ms under ingest load", what)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); procs[1].replica.Stats().RxFrames.Load() < 500; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("traffic never reached the second replica")
		}
	}

	// Second process: the bridge first, with its receive loops mid-pipeline.
	within("Bridge.Close before Replica.Stop", procs[1].bridge.Close)
	within("Replica.Stop after Bridge.Close", procs[1].replica.Stop)

	// First process: the replica first; its bridge keeps injecting.
	within("Replica.Stop", procs[0].replica.Stop)
	rx := procs[0].replica.Stats().RxFrames.Load()
	_, _, dropped, _ := procs[0].fabric.Stats()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, d, _ := procs[0].fabric.Stats(); d >= dropped+100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bursts injected into the stopped replica were not counted as dropped")
		}
	}
	if got := procs[0].replica.Stats().RxFrames.Load(); got != rx {
		t.Fatalf("%d frames processed after Stop returned", got-rx)
	}
	within("Bridge.Close after Replica.Stop", procs[0].bridge.Close)
	close(stop)
	wg.Wait()
}

// TestProxyBehindShapedLink puts latency and loss on the fabric link to a
// proxy: those frames take the per-frame timer path and reach the hook as
// pooled copies, and every frame the fabric counts delivered must still come
// out of the tunnel exactly once.
func TestProxyBehindShapedLink(t *testing.T) {
	rig := newProxyRig(t, Config{SocketBuf: 4 << 20})
	rig.fabric.SetLink("src", "dst", netsim.LinkProfile{Latency: 200 * time.Microsecond, LossRate: 0.25})
	const n = 640
	// Read while sending: timer deliveries are one datagram each, and a far
	// socket on default buffers would not hold them all.
	seen := make(map[uint32]bool, n) // reader-owned until got is received
	got := make(chan int, 1)
	go func() {
		got <- rig.readFrames(t, 500*time.Millisecond, func(f []byte) {
			seq := binary.BigEndian.Uint32(f[4:8])
			if len(f) != 8 || seq >= n || seen[seq] {
				t.Errorf("frame %x duplicated or corrupted in the tunnel", f)
			}
			seen[seq] = true
		})
	}()
	for seq := uint32(0); seq < n; {
		burst := make([][]byte, 16)
		for i := range burst {
			burst[i] = stamped(0, seq)
			seq++
		}
		if err := rig.src.SendBurst("dst", burst); err != nil {
			t.Fatal(err)
		}
	}
	var delivered, lost uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var sent, dropped uint64
		sent, delivered, dropped, lost = rig.fabric.Stats()
		if sent == n && sent == delivered+dropped+lost {
			if dropped != 0 {
				t.Fatalf("fabric dropped %d frames bound for a live proxy", dropped)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timer deliveries never resolved: sent=%d delivered=%d dropped=%d lost=%d", sent, delivered, dropped, lost)
		}
	}
	if lost == 0 || delivered == 0 {
		t.Fatalf("link shaped nothing: delivered=%d lost=%d", delivered, lost)
	}
	if carried := <-got; uint64(carried) != delivered {
		t.Fatalf("tunnel carried %d frames, fabric delivered %d to the proxy", carried, delivered)
	}
	if st := rig.bridge.Stats(); st.FramesOut != delivered {
		t.Fatalf("Stats.FramesOut = %d, want %d", st.FramesOut, delivered)
	}
}

// TestProxySendAllocs gates the send path at zero allocations, for a burst
// and for a single Send — the goroutine that produced the frames runs it, so
// anything it allocates lands on the data path's allocs per packet. (The
// single Send is the sharp half: a hook shaped func([][]byte) makes the
// fabric build a one-element slice per frame, which escapes through the
// func value and costs an allocation per Send.) Nobody reads the far socket;
// UDP drops what does not fit.
func TestProxySendAllocs(t *testing.T) {
	rig := newProxyRig(t, Config{})
	burst := make([][]byte, 32)
	for i := range burst {
		burst[i] = make([]byte, 256)
	}
	sendBurst := func() {
		if err := rig.src.SendBurst("dst", burst); err != nil {
			t.Fatal(err)
		}
	}
	sendOne := func() {
		if err := rig.src.Send("dst", burst[0]); err != nil {
			t.Fatal(err)
		}
	}
	sendBurst() // builds the batch, fills the route cache
	sendOne()
	if n := testing.AllocsPerRun(200, sendBurst); n != 0 {
		t.Errorf("SendBurst(32) to a proxy allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, sendOne); n != 0 {
		t.Errorf("Send to a proxy allocates %v times, want 0", n)
	}
}
