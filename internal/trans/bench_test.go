package trans

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// BenchmarkBridgeThroughput measures tunnel throughput between two bridge
// processes over real loopback UDP sockets: a sender fabric whose node
// blasts 256-byte frames at its peer proxy, and a receiver fabric whose
// node drains them. The matrix crosses datagram packing with syscall
// batching:
//
//   - burst=1 frames one datagram per packet (the pre-batching transport).
//   - packed is the PR 3 reference: packed datagrams, one syscall each,
//     one socket (the portable transport, forced through the test seam).
//   - mmsg is the default Linux path: sendmmsg/recvmmsg datagram vectors
//     plus SO_REUSEPORT socket-per-worker (identical to packed on other
//     platforms, where the portable path is the only transport).
//   - mtu=8972 is the jumbo loopback budget; mtu=1472 is a real Ethernet
//     MTU, where ~6× more datagrams per frame make the per-syscall cost
//     the wall the mmsg path exists to tear down.
//
// The pps metric is frames observed at the receiving node per second;
// sys/frame is data-plane syscalls (tx send + rx recv) per delivered
// frame, and goodput is payload bytes over datagram bytes, both from the
// bridge Stats counters.
func BenchmarkBridgeThroughput(b *testing.B) {
	for _, c := range bridgeCases {
		b.Run(c.name, func(b *testing.B) {
			benchBridge(b, c.burst, c.mtu, c.portable)
		})
	}
}

// bridgeCases is BenchmarkBridgeThroughput's matrix.
var bridgeCases = []struct {
	name     string
	burst    int
	mtu      int
	portable bool
}{
	{"burst=1", 1, DefaultMTUBudget, false},
	{"burst=32/mtu=8972/packed", 32, DefaultMTUBudget, true},
	{"burst=32/mtu=8972/mmsg", 32, DefaultMTUBudget, false},
	{"burst=32/mtu=1472/packed", 32, 1500 - 28, true},
	{"burst=32/mtu=1472/mmsg", 32, 1500 - 28, false},
}

// UDP has no flow control: an unpaced sender just overruns the receive
// socket, and the benchmark would measure kernel drop processing. The sender
// therefore keeps a bounded credit window of frames in flight against the
// receiver's count — enough to pipeline across the wakeup chain, small
// enough for the socket buffer.
const creditWindow = 1024

// newBridgePair joins a sender fabric's node "src" to a receiver fabric's
// node "dst" over loopback bridges, and returns both nodes, the bridges and
// one burst of 256-byte frames. tb's cleanup stops and closes everything.
func newBridgePair(tb testing.TB, burst, mtu int, portable bool) (txNode, rxNode *netsim.Node, txBridge, rxBridge *Bridge, batch [][]byte) {
	sockets := 0 // default: GOMAXPROCS on the mmsg path
	if portable {
		sockets = 1 // the PR 3 single-socket reference
	}
	cfg := Config{Burst: burst, MTUBudget: mtu, SocketBuf: 4 << 20,
		Sockets: sockets, portable: portable}

	rxFab := netsim.New(netsim.Config{})
	tb.Cleanup(rxFab.Stop)
	rxNode = rxFab.AddNode("dst", netsim.NodeConfig{QueueCap: 2 * creditWindow})
	rxBridge, err := NewBridge(rxFab, "dst", "", "", nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rxBridge.Close() })
	rxUDP, rxTCP := rxBridge.Addrs()

	txFab := netsim.New(netsim.Config{})
	tb.Cleanup(txFab.Stop)
	txNode = txFab.AddNode("src", netsim.NodeConfig{QueueCap: 2 * creditWindow})
	txBridge, err = NewBridge(txFab, "src", "", "", []Peer{
		{ID: "dst", UDPAddr: rxUDP, TCPAddr: rxTCP},
	}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { txBridge.Close() })

	frame := make([]byte, 256)
	batch = make([][]byte, burst)
	for i := range batch {
		batch[i] = frame
	}
	return txNode, rxNode, txBridge, rxBridge, batch
}

// TestBridgeThroughputAllocs gates every BenchmarkBridgeThroughput row at
// its 0 allocs/op — fewer than one allocation per delivered frame, send and
// receive sides together — closed-loop: a burst sent, then drained at the
// far node.
func TestBridgeThroughputAllocs(t *testing.T) {
	for _, c := range bridgeCases {
		t.Run(c.name, func(t *testing.T) {
			txNode, rxNode, _, _, batch := newBridgePair(t, c.burst, c.mtu, c.portable)
			defer time.AfterFunc(time.Minute, rxNode.Crash).Stop() // a lost datagram must not hang the suite
			bufs := make([]netsim.Inbound, 64)
			hop := func() {
				if err := txNode.SendBurstBlocking("dst", batch); err != nil {
					t.Fatal(err)
				}
				for got := 0; got < len(batch); {
					n := rxNode.RecvBurst(0, bufs)
					if n == 0 {
						t.Fatal("receiver crashed")
					}
					for i := 0; i < n; i++ {
						netsim.ReleaseFrame(bufs[i].Frame)
						bufs[i] = netsim.Inbound{}
					}
					got += n
				}
			}
			for i := 0; i < 50; i++ {
				hop()
			}
			per := testing.AllocsPerRun(200, hop) / float64(len(batch))
			t.Logf("%.3f allocations per frame", per)
			if per >= 1 {
				t.Fatalf("bridge hop allocates %.2f times per frame, want < 1", per)
			}
		})
	}
}

func benchBridge(b *testing.B, burst, mtu int, portable bool) {
	txNode, rxNode, txBridge, rxBridge, batch := newBridgePair(b, burst, mtu, portable)
	var receivedCount atomic.Int64
	stop := make(chan struct{})
	var senderDone sync.WaitGroup
	senderDone.Add(1)
	go func() {
		defer senderDone.Done()
		sent := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for sent-receivedCount.Load() >= creditWindow {
				select {
				case <-stop:
					return
				default:
					time.Sleep(20 * time.Microsecond)
				}
			}
			if err := txNode.SendBurstBlocking("dst", batch); err != nil {
				return
			}
			sent += int64(burst)
		}
	}()

	bufs := make([]netsim.Inbound, 64)
	b.ResetTimer()
	sysStart := txBridge.Stats().SendSyscalls + rxBridge.Stats().RecvSyscalls
	start := time.Now()
	received := 0
	for received < b.N {
		n := rxNode.RecvBurst(0, bufs)
		if n == 0 {
			b.Fatal("receiver crashed")
		}
		for i := 0; i < n; i++ {
			netsim.ReleaseFrame(bufs[i].Frame)
			bufs[i] = netsim.Inbound{}
		}
		received += n
		receivedCount.Add(int64(n))
	}
	elapsed := time.Since(start)
	sysEnd := txBridge.Stats().SendSyscalls + rxBridge.Stats().RecvSyscalls
	b.StopTimer()
	close(stop)
	// Closing the sender bridge closes its sockets, unblocking a sender
	// parked on a full socket buffer.
	txBridge.Close()
	senderDone.Wait()
	b.ReportMetric(float64(received)/elapsed.Seconds(), "pps")
	b.ReportMetric(float64(sysEnd-sysStart)/float64(received), "sys/frame")
	// Tunnel goodput: payload bytes over datagram bytes for the whole run
	// (the complement is per-record framing overhead, so packed datagrams
	// score near 1 and burst=1 pays a full header per frame).
	if s := txBridge.Stats(); s.WireBytesOut > 0 {
		b.ReportMetric(float64(s.FrameBytesOut)/float64(s.WireBytesOut), "goodput")
	}
}
