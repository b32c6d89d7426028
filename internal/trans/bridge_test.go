package trans

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// proc is one simulated OS process: its own fabric, one replica, a bridge.
type proc struct {
	fabric  *netsim.Fabric
	replica *core.Replica
	bridge  *Bridge
}

func ringID(i int) netsim.NodeID { return netsim.NodeID(fmt.Sprintf("ftc-r%d", i)) }

// chainOpts tunes the multi-process test harness.
type chainOpts struct {
	egressAddr string
	burst      int                             // 0: defaults
	newMB      func(i int) core.Middlebox      // nil: monitor everywhere
	transCfg   func(i int, base Config) Config // nil: base config everywhere
}

// startChainProcs boots an n-replica chain where every replica lives in its
// own fabric and frames cross real UDP loopback sockets.
func startChainProcs(t *testing.T, n int, opts chainOpts) ([]*proc, core.Config) {
	t.Helper()
	egressAddr := opts.egressAddr
	cfg := core.Config{F: 1, NumMB: n, Workers: 2, Burst: opts.burst, PropagateEvery: time.Millisecond}.WithDefaults()
	ring := cfg.Ring()
	procs := make([]*proc, ring.M())
	udpAddrs := make([]string, ring.M())
	tcpAddrs := make([]string, ring.M())

	// First pass: create fabrics, replicas, and bridges with no peers (to
	// learn the bound addresses).
	for i := range procs {
		fabric := netsim.New(netsim.Config{})
		local := fabric.AddNode(ringID(i), netsim.NodeConfig{
			Queues: cfg.Workers, QueueCap: 4096, Selector: wire.RSSSelector,
		})
		ringIDs := make([]netsim.NodeID, ring.M())
		for j := range ringIDs {
			ringIDs[j] = ringID(j)
		}
		var egressID netsim.NodeID
		if i == ring.M()-1 && egressAddr != "" {
			egressID = "egress"
		}
		var mb core.Middlebox
		if i < n {
			if opts.newMB != nil {
				mb = opts.newMB(i)
			} else {
				mb = mbox.NewMonitor(1, cfg.Workers)
			}
		}
		rep := core.NewReplica(cfg, core.ReplicaSpec{
			Index: i, Sim: local, Fabric: fabric,
			RingIDs: ringIDs, Egress: egressID, MB: mb,
		})
		tcfg := Config{Burst: cfg.Burst}
		if opts.transCfg != nil {
			tcfg = opts.transCfg(i, tcfg)
		}
		bridge, err := NewBridge(fabric, local.ID(), "", "", nil, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		udpAddrs[i], tcpAddrs[i] = bridge.Addrs()
		procs[i] = &proc{fabric: fabric, replica: rep, bridge: bridge}
	}
	// Second pass: wire peers and egress, then start.
	for i, p := range procs {
		for j := range procs {
			if i == j {
				continue
			}
			if err := p.bridge.AddPeer(Peer{ID: ringID(j), UDPAddr: udpAddrs[j], TCPAddr: tcpAddrs[j]}); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(procs)-1 && egressAddr != "" {
			if err := p.bridge.AddPeer(Peer{ID: "egress", UDPAddr: egressAddr}); err != nil {
				t.Fatal(err)
			}
		}
		p.replica.Start()
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.replica.Stop()
			p.bridge.Close()
			p.fabric.Stop()
		}
	})
	_ = udpAddrs
	return procs, cfg
}

// sinkFrames listens on a UDP socket for packed egress datagrams and
// forwards every tunneled frame (copied) to the returned channel.
func sinkFrames(t *testing.T, sinkConn *net.UDPConn) chan []byte {
	t.Helper()
	got := make(chan []byte, 4096)
	go func() {
		buf := make([]byte, MaxDatagram)
		for {
			n, _, err := sinkConn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if err := SplitFrames(buf[:n], func(frame []byte) {
				got <- append([]byte(nil), frame...)
			}); err != nil {
				// Report on the channel's terms: a truncated egress
				// datagram means a framing bug, surfaced by the
				// receive-count assertion timing out.
				return
			}
		}
	}()
	return got
}

// packFrame wraps one raw frame in the tunnel's datagram format for
// ingress injection.
func packFrame(t *testing.T, frame []byte) []byte {
	t.Helper()
	dgram, err := AppendFrame(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	return dgram
}

func TestBridgeChainOverRealSockets(t *testing.T) {
	// Egress sink: a plain UDP socket.
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sinkConn.Close()
	got := sinkFrames(t, sinkConn)

	procs, _ := startChainProcs(t, 3, chainOpts{egressAddr: sinkConn.LocalAddr().String()})

	// Ingress: send raw frames to replica 0's UDP address.
	ingressAddr, _ := procs[0].bridge.Addrs()
	ingress, err := net.Dial("udp", ingressAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ingress.Close()

	const n = 50
	for i := 0; i < n; i++ {
		p, err := wire.BuildUDP(wire.UDPSpec{
			SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
			Src: wire.Addr4(10, 9, 0, byte(i)), Dst: wire.Addr4(192, 0, 2, 1),
			SrcPort: uint16(3000 + i), DstPort: 80,
			Payload: []byte(fmt.Sprintf("sockets-%02d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ingress.Write(packFrame(t, p.Buf)); err != nil {
			t.Fatal(err)
		}
	}

	received := 0
	deadline := time.After(20 * time.Second)
	for received < n {
		select {
		case frame := <-got:
			p, err := wire.Parse(frame)
			if err != nil {
				t.Fatalf("bad egress frame: %v", err)
			}
			if p.HasTrailer() || p.HasFTCOption() {
				t.Fatal("egress frame not finalized")
			}
			received++
		case <-deadline:
			t.Fatalf("received %d of %d over sockets", received, n)
		}
	}

	// State replicated across process boundaries: follower of mb0 lives in
	// process 1 and must match after quiescence.
	deadlineQ := time.Now().Add(10 * time.Second)
	for {
		hv, _ := procs[0].replica.Head().Store().Get("pkt-count-0")
		var hc uint64
		if len(hv) == 8 {
			hc = binary.BigEndian.Uint64(hv)
		}
		fol := procs[1].replica.Follower(0)
		fv, _ := fol.Store().Get("pkt-count-0")
		var fc uint64
		if len(fv) == 8 {
			fc = binary.BigEndian.Uint64(fv)
		}
		var total uint64
		for g := 0; g < 2; g++ {
			if v, ok := procs[0].replica.Head().Store().Get(fmt.Sprintf("pkt-count-%d", g)); ok {
				total += binary.BigEndian.Uint64(v)
			}
		}
		if total == n && hc == fc {
			break
		}
		if time.Now().After(deadlineQ) {
			t.Fatalf("cross-process replication lag: head=%d follower=%d total=%d", hc, fc, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSocketBufTruthStats checks socket-buffer truth logging: Stats must
// report the kernel's effective SO_RCVBUF/SO_SNDBUF, not the requested
// Config.SocketBuf (on Linux the readback is roughly double a granted
// request, and silently clamped requests diverge arbitrarily).
func TestSocketBufTruthStats(t *testing.T) {
	fabric := netsim.New(netsim.Config{})
	defer fabric.Stop()
	fabric.AddNode("n", netsim.NodeConfig{})
	b, err := NewBridge(fabric, "n", "", "", nil, Config{SocketBuf: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s := b.Stats()
	if s.Sockets < 1 {
		t.Fatalf("Stats.Sockets = %d", s.Sockets)
	}
	if !reuseportSupported {
		t.Skip("no socket-buffer readback on this platform")
	}
	if s.EffRcvBuf <= 0 || s.EffSndBuf <= 0 {
		t.Fatalf("effective socket buffers not read back: rcv=%d snd=%d",
			s.EffRcvBuf, s.EffSndBuf)
	}
	// The kernel grants at least its floor (SOCK_MIN_RCVBUF ~2KiB); a
	// 256KiB request on default rmem_max caps still lands well above it.
	if s.EffRcvBuf < 2048 || s.EffSndBuf < 2048 {
		t.Fatalf("implausible effective buffers: rcv=%d snd=%d", s.EffRcvBuf, s.EffSndBuf)
	}
}

func TestBridgeControlRPCAcrossSockets(t *testing.T) {
	procs, _ := startChainProcs(t, 2, chainOpts{})
	// Cross-process ping: proc0's proxy for r1 forwards over TCP to proc1.
	ok := core.Ping(context.Background(), procs[0].fabric, ringID(0), ringID(1), 5*time.Second)
	if !ok {
		t.Fatal("cross-process ping failed")
	}
	// Cross-process state fetch (the recovery path).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fs, err := core.FetchFrom(ctx, procs[0].fabric, ringID(0), ringID(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs.MB != 0 || fs.Vector == nil {
		t.Fatalf("fetched state = %+v", fs)
	}
}

func TestRequestResponseFraming(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	go func() {
		name, payload, err := readRequest(s)
		if err != nil {
			writeResponse(s, 1, []byte(err.Error()))
			return
		}
		writeResponse(s, 0, []byte(name+":"+string(payload)))
	}()
	if err := writeRequest(c, "ftc.ping", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ftc.ping:hi" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestFramingErrors(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	go func() {
		readRequest(s)
		writeResponse(s, 1, []byte("boom"))
	}()
	writeRequest(c, "x", nil)
	if _, err := readResponse(c); err == nil {
		t.Fatal("remote error not surfaced")
	}
}
