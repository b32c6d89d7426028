package trans

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// flowMB keeps one counter per flow (source port), so the final state
// depends on exactly which packets traversed the tunneled chain and how
// many times each transaction was applied.
type flowMB struct{ prefix string }

func (m *flowMB) Name() string { return "flow-" + m.prefix }

func (m *flowMB) Process(p *wire.Packet, tx state.Txn) (core.Verdict, error) {
	key := fmt.Sprintf("%s-%d", m.prefix, p.UDP.SrcPort)
	v, _, err := tx.Get(key)
	if err != nil {
		return core.Drop, err
	}
	var n uint64
	if len(v) == 8 {
		n = binary.BigEndian.Uint64(v)
	}
	n++
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], n)
	return core.Forward, tx.Put(key, b8[:])
}

func flowChainMBs(i int) core.Middlebox {
	return &flowMB{prefix: string(rune('a' + i))}
}

// bridgePayloadID extracts the sequence number embedded as "pkt-%06d".
func bridgePayloadID(t testing.TB, frame []byte) int {
	t.Helper()
	p, err := wire.Parse(frame)
	if err != nil {
		t.Fatalf("egress frame unparseable: %v", err)
	}
	var id int
	if _, err := fmt.Sscanf(string(p.Payload()), "pkt-%06d", &id); err != nil {
		t.Fatalf("egress payload %q unparseable: %v", p.Payload(), err)
	}
	return id
}

// buildIngressFrame builds workload packet id as a raw frame.
func buildIngressFrame(t testing.TB, id int) []byte {
	t.Helper()
	p, err := wire.BuildUDP(wire.UDPSpec{
		SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Src: wire.Addr4(10, 3, byte(id>>8), byte(id)), Dst: wire.Addr4(192, 0, 2, 1),
		SrcPort: uint16(1024 + id%16), DstPort: uint16(2000 + id%4),
		Payload:  []byte(fmt.Sprintf("pkt-%06d", id)),
		Headroom: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p.Buf
}

// snapshotSorted dumps a store as a deterministic key=value listing.
func snapshotSorted(b state.Backend) []state.Update {
	ups := b.Snapshot()
	sort.Slice(ups, func(i, j int) bool { return ups[i].Key < ups[j].Key })
	return ups
}

// bridgeDigest renders every replica store in the multi-process chain
// (heads and followers) as one deterministic string.
func bridgeDigest(procs []*proc, cfg core.Config) string {
	var sb strings.Builder
	ring := cfg.Ring()
	dump := func(name string, b state.Backend) {
		fmt.Fprintf(&sb, "[%s]\n", name)
		for _, u := range snapshotSorted(b) {
			fmt.Fprintf(&sb, "%s=%x\n", u.Key, u.Value)
		}
	}
	for j := 0; j < ring.N; j++ {
		dump(fmt.Sprintf("head%d", j), procs[j].replica.Head().Store())
		for _, i := range ring.Members(j)[1:] {
			dump(fmt.Sprintf("mb%d@follower%d", j, i), procs[i].replica.Follower(uint16(j)).Store())
		}
	}
	return sb.String()
}

// waitBridgeConverged polls until every follower store byte-matches its
// head store across all processes.
func waitBridgeConverged(t *testing.T, procs []*proc, cfg core.Config, timeout time.Duration) {
	t.Helper()
	ring := cfg.Ring()
	deadline := time.Now().Add(timeout)
	for {
		converged := true
	outer:
		for j := 0; j < ring.N; j++ {
			hs := snapshotSorted(procs[j].replica.Head().Store())
			for _, i := range ring.Members(j)[1:] {
				fs := snapshotSorted(procs[i].replica.Follower(uint16(j)).Store())
				if len(hs) != len(fs) {
					converged = false
					break outer
				}
				for k := range hs {
					if hs[k].Key != fs[k].Key || string(hs[k].Value) != string(fs[k].Value) {
						converged = false
						break outer
					}
				}
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-process replication did not converge within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runBridgeWorkload pushes n distinct packets through a fresh 3-process
// chain over real loopback sockets at the given burst size, requires every
// packet to egress exactly once, and returns the sorted delivered IDs plus
// the converged all-store state digest. Ingress is lightly paced so the
// loopback UDP socket buffers never overflow: with flow-controlled fabric
// queues behind them, the delivered set is then deterministic — all n.
func runBridgeWorkload(t *testing.T, burst, n int) ([]int, string) {
	t.Helper()
	ids, digest, _ := runBridgeWorkloadOpts(t, burst, n, nil)
	return ids, digest
}

// runBridgeWorkloadOpts is runBridgeWorkload with a per-process transport
// config hook, so equivalence suites can pit mmsg, portable, and multi-socket
// bridges against each other in one chain; it also returns every process's
// final tunnel counters.
func runBridgeWorkloadOpts(t *testing.T, burst, n int, transCfg func(i int, base Config) Config) ([]int, string, []Stats) {
	t.Helper()
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sinkConn.Close()
	got := sinkFrames(t, sinkConn)

	procs, cfg := startChainProcs(t, 3, chainOpts{
		egressAddr: sinkConn.LocalAddr().String(),
		burst:      burst,
		newMB:      flowChainMBs,
		transCfg:   transCfg,
	})

	ingressAddr, _ := procs[0].bridge.Addrs()
	ingress, err := net.Dial("udp", ingressAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ingress.Close()

	for i := 0; i < n; i++ {
		if _, err := ingress.Write(packFrame(t, buildIngressFrame(t, i))); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			time.Sleep(300 * time.Microsecond)
		}
	}

	seen := make(map[int]bool, n)
	ids := make([]int, 0, n)
	deadline := time.After(60 * time.Second)
	for len(ids) < n {
		select {
		case frame := <-got:
			id := bridgePayloadID(t, frame)
			if seen[id] {
				t.Fatalf("burst=%d: packet %d delivered twice", burst, id)
			}
			if id < 0 || id >= n {
				t.Fatalf("burst=%d: delivered unknown packet %d", burst, id)
			}
			seen[id] = true
			ids = append(ids, id)
		case <-deadline:
			t.Fatalf("burst=%d: delivered %d of %d over sockets", burst, len(ids), n)
		}
	}

	waitBridgeConverged(t, procs, cfg, 20*time.Second)
	sort.Ints(ids)
	stats := make([]Stats, len(procs))
	for i, p := range procs {
		stats[i] = p.bridge.Stats()
	}
	return ids, bridgeDigest(procs, cfg), stats
}

// TestBridgeBurstEquivalence extends the in-process TestBurstEquivalence
// guarantee to the socket transport: burst=1 (one frame per datagram, the
// pre-batching wire behaviour) and burst=32 (packed datagrams, burst
// injection) must deliver exactly the same packets exactly once and
// converge every head and follower store, across OS-process boundaries, to
// exactly the same state.
func TestBridgeBurstEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sockets; skipped in -short")
	}
	const n = 240
	ids1, dig1 := runBridgeWorkload(t, 1, n)
	ids32, dig32 := runBridgeWorkload(t, 32, n)
	if len(ids1) != len(ids32) {
		t.Fatalf("delivered %d packets at burst=1, %d at burst=32", len(ids1), len(ids32))
	}
	for i := range ids1 {
		if ids1[i] != ids32[i] {
			t.Fatalf("delivered sets diverge at %d: burst=1 has %d, burst=32 has %d",
				i, ids1[i], ids32[i])
		}
	}
	if dig1 != dig32 {
		t.Fatalf("state digests diverge:\nburst=1:\n%s\nburst=32:\n%s", dig1, dig32)
	}
}

// TestBridgeMixedMMsgPortableDeployment runs the burst-equivalence workload
// through a deliberately heterogeneous chain — one replica on the default
// mmsg multi-socket transport, one forced onto the portable path,
// one on mmsg with an explicit 2-socket SO_REUSEPORT group — and requires
// the same delivered set and the same converged state digest as a uniform
// default-transport chain. This is the wire-compatibility guarantee: mmsg
// batching changes syscalls, never frames, so mixed deployments (e.g. a
// rolling upgrade, or Linux and non-Linux hosts in one chain) interoperate.
// The mixed chain packs to a small budget, so bursts span datagrams and the
// mmsg processes send segmented, padded messages at the portable one, which
// must read them as ordinary datagrams.
func TestBridgeMixedMMsgPortableDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sockets; skipped in -short")
	}
	const n = 240
	mixed := func(i int, base Config) Config {
		base.MTUBudget = 512
		switch i % 3 {
		case 0: // default mmsg, GOMAXPROCS sockets
		case 1:
			base.portable = true
			base.Sockets = 1
		case 2:
			base.Sockets = 2
		}
		return base
	}
	idsMixed, digMixed, stats := runBridgeWorkloadOpts(t, 32, n, mixed)
	idsPure, digPure, _ := runBridgeWorkloadOpts(t, 32, n, nil)
	for i, st := range stats {
		t.Logf("process %d: %d datagrams out in %d messages, %d in in %d messages",
			i, st.DatagramsOut, st.SendMessages, st.DatagramsIn, st.RecvMessages)
		if st.TruncatedDatagrams != 0 || st.SendErrors != 0 {
			t.Fatalf("process %d: %d truncated datagrams, %d send errors", i, st.TruncatedDatagrams, st.SendErrors)
		}
	}
	if st := stats[1]; st.SendMessages != st.DatagramsOut || st.RecvMessages != st.DatagramsIn {
		t.Fatalf("portable process moved %d/%d datagrams in %d/%d messages", st.DatagramsOut, st.DatagramsIn, st.SendMessages, st.RecvMessages)
	}
	if len(idsMixed) != len(idsPure) {
		t.Fatalf("delivered %d packets mixed, %d pure", len(idsMixed), len(idsPure))
	}
	for i := range idsPure {
		if idsMixed[i] != idsPure[i] {
			t.Fatalf("delivered sets diverge at %d: mixed has %d, pure has %d",
				i, idsMixed[i], idsPure[i])
		}
	}
	if digMixed != digPure {
		t.Fatalf("state digests diverge:\nmixed:\n%s\npure:\n%s", digMixed, digPure)
	}
}

// TestBridgeCrashMidBurstPeer fail-stops one peer process while bursts are
// in flight on the sockets. Whatever frames die with it, the tunneled
// chain must uphold its invariants: no packet egresses twice, every
// egressed packet was actually sent, and the surviving processes' bridges
// (data and control planes) keep working. Under -race this also shakes out
// races between batch packing/injection and bridge teardown.
func TestBridgeCrashMidBurstPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sockets; skipped in -short")
	}
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sinkConn.Close()
	got := sinkFrames(t, sinkConn)

	procs, _ := startChainProcs(t, 3, chainOpts{
		egressAddr: sinkConn.LocalAddr().String(),
		burst:      32,
		newMB:      flowChainMBs,
	})

	ingressAddr, _ := procs[0].bridge.Addrs()
	ingress, err := net.Dial("udp", ingressAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ingress.Close()

	// Stream unique packets from a separate goroutine so the crash lands
	// while bursts are mid-pack and mid-injection. Frames are prebuilt:
	// the goroutine must not touch t.
	const n = 400
	dgrams := make([][]byte, n)
	for i := range dgrams {
		dgrams[i] = packFrame(t, buildIngressFrame(t, i))
	}
	sent := make(chan int, 1)
	go func() {
		sends := 0
		for i := 0; i < n; i++ {
			if _, err := ingress.Write(dgrams[i]); err != nil {
				break
			}
			sends++
			if i%8 == 7 {
				time.Sleep(300 * time.Microsecond)
			}
		}
		sent <- sends
	}()

	// Fail-stop the middle process: its fabric crashes (replica workers
	// die mid-burst, proxies drop) and its sockets close. Peer bridges
	// keep sending datagrams into the void, as on a real network.
	time.Sleep(5 * time.Millisecond)
	procs[1].fabric.Stop()
	procs[1].bridge.Close()
	sends := <-sent
	if sends != n {
		t.Fatalf("ingress socket failed after %d of %d sends", sends, n)
	}

	// Collect whatever egresses until the chain goes quiet.
	counts := make(map[int]int)
	total := 0
	deadline := time.Now().Add(20 * time.Second)
	idle := 0
	for idle < 500 && time.Now().Before(deadline) {
		select {
		case frame := <-got:
			idle = 0
			counts[bridgePayloadID(t, frame)]++
			total++
		default:
			idle++
			time.Sleep(2 * time.Millisecond)
		}
	}
	for id, c := range counts {
		if id < 0 || id >= n {
			t.Fatalf("delivered unknown packet id %d", id)
		}
		if c > 1 {
			t.Fatalf("packet id %d delivered %d times, sent once", id, c)
		}
	}
	t.Logf("delivered %d of %d across peer crash", total, n)

	// The survivors' transports must still be fully functional: proc0's
	// control plane reaches proc2 across the dead peer.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ok := core.Ping(ctx, procs[0].fabric, ringID(0), ringID(2), 5*time.Second); !ok {
		t.Fatal("surviving control plane broken after peer crash")
	}
	if s := procs[0].bridge.Stats(); s.FramesOut == 0 || s.DatagramsOut == 0 {
		t.Fatalf("bridge stats show no traffic: %+v", s)
	}
}
