package trans

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// TestMultiSocketPerFlowFIFO checks the ordering contract of SO_REUSEPORT
// fan-out: with the receiver spread across 4 sockets and several senders
// streaming sequenced frames concurrently, every sender's frames must
// arrive in send order. The guarantee rests on stable 4-tuples — each
// sender's bridge pins its peer to one local socket, the kernel's
// REUSEPORT hash then maps that 4-tuple to one receive socket, and a
// single udpLoop per socket injects in order. UDP may drop, but it must
// never reorder within a flow here (loopback, one queue per 4-tuple). It
// holds on both ways into the node: through the queue, where one goroutine
// drains what the four receive loops enqueue, and with a pipeline attached,
// where the four receive loops run it themselves, concurrently, on frames
// that alias their read buffers.
func TestMultiSocketPerFlowFIFO(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sockets; skipped in -short")
	}
	t.Run("queue", func(t *testing.T) { multiSocketPerFlowFIFO(t, false) })
	t.Run("attached", func(t *testing.T) { multiSocketPerFlowFIFO(t, true) })
}

func multiSocketPerFlowFIFO(t *testing.T, attached bool) {
	const (
		senders   = 3
		perSender = 1500
		burst     = 25
	)

	// Receiver: assert per-sender monotonic sequence. Violations are
	// collected, not fataled, because this runs off the test goroutine —
	// the drain goroutine, or all four receive loops at once.
	var received atomic.Int64
	var mu sync.Mutex
	var violations []string
	last := make(map[uint32]uint32, senders)
	observe := func(f []byte) {
		if len(f) != 8 {
			return
		}
		sender := binary.BigEndian.Uint32(f[0:4])
		seq := binary.BigEndian.Uint32(f[4:8])
		mu.Lock()
		if prev, ok := last[sender]; ok && seq <= prev && len(violations) < 10 {
			violations = append(violations,
				time.Now().Format(time.RFC3339Nano)+
					": sender "+string(rune('A'+sender))+
					" reordered")
		}
		last[sender] = seq
		mu.Unlock()
		received.Add(1)
	}

	rxFab := netsim.New(netsim.Config{})
	defer rxFab.Stop()
	rxNode := rxFab.AddNode("dst", netsim.NodeConfig{QueueCap: 8192})
	if attached {
		rxNode.AttachIngest(func(frames [][]byte) bool {
			for _, f := range frames {
				observe(f)
			}
			return true
		})
	}
	rxBridge, err := NewBridge(rxFab, "dst", "", "", nil,
		Config{Sockets: 4, SocketBuf: 4 << 20, Burst: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer rxBridge.Close()
	rxUDP, rxTCP := rxBridge.Addrs()

	var recvDone sync.WaitGroup
	recvDone.Add(1)
	go func() {
		defer recvDone.Done()
		bufs := make([]netsim.Inbound, 64)
		for {
			n := rxNode.RecvBurst(0, bufs)
			if n == 0 {
				return // fabric stopped
			}
			if attached {
				t.Error("a frame reached the queue of a node with a pipeline attached")
			}
			for i := 0; i < n; i++ {
				f := bufs[i].Frame
				bufs[i] = netsim.Inbound{}
				observe(f)
				netsim.ReleaseFrame(f)
			}
		}
	}()

	// Senders: each is its own process image (fabric + bridge + socket),
	// so each has a distinct source port and hashes to its own receive
	// socket bucket.
	var sendDone sync.WaitGroup
	for sid := 0; sid < senders; sid++ {
		sid := sid
		sendDone.Add(1)
		go func() {
			defer sendDone.Done()
			txFab := netsim.New(netsim.Config{})
			defer txFab.Stop()
			id := netsim.NodeID(string(rune('a' + sid)))
			txNode := txFab.AddNode(id, netsim.NodeConfig{QueueCap: 4096})
			txBridge, err := NewBridge(txFab, id, "", "", []Peer{
				{ID: "dst", UDPAddr: rxUDP, TCPAddr: rxTCP},
			}, Config{Burst: 32, SocketBuf: 4 << 20})
			if err != nil {
				t.Error(err)
				return
			}
			defer txBridge.Close()
			seq := uint32(0)
			for seq < perSender {
				batch := make([][]byte, 0, burst)
				for j := 0; j < burst && seq < perSender; j++ {
					seq++
					f := make([]byte, 8)
					binary.BigEndian.PutUint32(f[0:4], uint32(sid))
					binary.BigEndian.PutUint32(f[4:8], seq)
					batch = append(batch, f)
				}
				if err := txNode.SendBurstBlocking("dst", batch); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(200 * time.Microsecond) // pace below socket-buffer overrun
			}
		}()
	}
	sendDone.Wait()

	// Let in-flight datagrams settle, then stop the receive fabric to
	// unblock the drain goroutine.
	const total = senders * perSender
	deadline := time.Now().Add(10 * time.Second)
	lastCount := int64(-1)
	for time.Now().Before(deadline) {
		c := received.Load()
		if c == total || (c == lastCount && c > 0) {
			break
		}
		lastCount = c
		time.Sleep(250 * time.Millisecond)
	}
	rxFab.Stop()
	recvDone.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("per-flow FIFO violated %d times; first: %s", len(violations), violations[0])
	}
	got := received.Load()
	if got < int64(total*8/10) {
		t.Fatalf("received %d of %d frames (loss tolerated to 20%%, this is drop or deadlock)", got, total)
	}
	t.Logf("received %d/%d frames across %d rx sockets, order intact", got, total, rxBridge.Stats().Sockets)
}
