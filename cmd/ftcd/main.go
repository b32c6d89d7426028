// Command ftcd runs a single FTC chain replica as an OS process. The data
// plane is tunneled over UDP and the control plane (repair, recovery state
// fetch, heartbeats) over TCP, so a chain can span processes or machines.
//
// A three-middlebox chain on one host:
//
//	ftcd -index 0 -mb monitor -chain monitor,firewall,nat -f 1 \
//	     -listen-udp :7000 -listen-tcp :7100 \
//	     -peer 1=127.0.0.1:7001/127.0.0.1:7101 \
//	     -peer 2=127.0.0.1:7002/127.0.0.1:7102 \
//	     -burst 32 -mtu-budget 8972 \
//	     -egress 127.0.0.1:7999
//	ftcd -index 1 ... (and so on for each ring position)
//
// The data plane speaks the batched tunnel format of DESIGN.md §8: each
// UDP datagram packs up to -burst length-prefixed frames bound for the
// same peer, flushed early when a datagram would exceed -mtu-budget bytes.
// -burst also sets the replica's in-process vector-processing batch size,
// so one knob tunes the whole pipeline; -burst 1 reproduces the per-packet
// transport. On Linux the socket path moves whole vectors of those packed
// datagrams per syscall (sendmmsg/recvmmsg) across -sockets SO_REUSEPORT
// sockets; off Linux it sends one datagram per syscall in the same wire
// format, so mixed deployments interoperate. The goroutine that reads a
// socket runs the replica pipeline on what it read and sends the result on
// (DESIGN.md §8): -sockets is the replica's parallelism and -sockbuf its
// only ingress queue. Traffic enters
// by sending packed frames (as ftcgen sends them) to replica 0's UDP
// address; released packets leave from the last replica to -egress in the
// same packed format.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/trans"
	"github.com/ftsfc/ftc/internal/wire"
)

type peerFlags map[int]trans.Peer

func (p peerFlags) String() string { return fmt.Sprintf("%d peers", len(p)) }

func (p peerFlags) Set(v string) error {
	var idx int
	var udpAddr, tcpAddr string
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("peer %q: want index=udp/tcp", v)
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &idx); err != nil {
		return fmt.Errorf("peer %q: bad index", v)
	}
	addrs := strings.SplitN(parts[1], "/", 2)
	udpAddr = addrs[0]
	if len(addrs) == 2 {
		tcpAddr = addrs[1]
	}
	p[idx] = trans.Peer{ID: ringID(idx), UDPAddr: udpAddr, TCPAddr: tcpAddr}
	return nil
}

func ringID(i int) netsim.NodeID { return netsim.NodeID(fmt.Sprintf("ftc-r%d", i)) }

// buildMB constructs a middlebox by name.
func buildMB(name string, workers int) (core.Middlebox, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "monitor":
		return mbox.NewMonitor(1, workers), nil
	case "firewall":
		return mbox.NewFirewall(nil, true), nil
	case "nat", "simplenat":
		return mbox.NewSimpleNAT(wire.Addr4(203, 0, 113, 1), 10000, 40000), nil
	case "mazunat":
		return mbox.NewMazuNAT(wire.Addr4(203, 0, 113, 1), 10000, 40000, wire.Addr4(10, 0, 0, 0), 8), nil
	case "gen":
		return mbox.NewGen(64, 16), nil
	case "none", "":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown middlebox %q (monitor|firewall|nat|mazunat|gen|none)", name)
	}
}

func main() {
	var (
		index     = flag.Int("index", 0, "this replica's ring position")
		chainSpec = flag.String("chain", "monitor", "comma-separated middlebox list defining the chain")
		mbName    = flag.String("mb", "", "middlebox this replica hosts (defaults to chain[index])")
		f         = flag.Int("f", 1, "failures to tolerate")
		listenUDP = flag.String("listen-udp", "127.0.0.1:0", "data-plane listen address")
		listenTCP = flag.String("listen-tcp", "127.0.0.1:0", "control-plane listen address")
		egress    = flag.String("egress", "", "UDP address released packets are sent to (last replica only)")
		burst     = flag.Int("burst", 0, "frames per batch, in-process and on the tunnel (0 = adaptive NAPI-style sizing, 1 = per-packet)")
		mtuBudget = flag.Int("mtu-budget", trans.DefaultMTUBudget, "tunnel datagram packing budget in bytes")
		sockets   = flag.Int("sockets", 0, "SO_REUSEPORT data-plane sockets sharing the UDP port, each read by one goroutine that runs the replica pipeline (0 = GOMAXPROCS; non-Linux always 1)")
		sockBuf   = flag.Int("sockbuf", 0, "requested SO_RCVBUF/SO_SNDBUF per data-plane socket in bytes, the replica's ingress queue (0 = OS default)")
		minTerm   = flag.Uint64("min-controller-term", 0, "preset the controller fence floor: control commands below this term are rejected, so a leader deposed while this replica was down cannot adopt it (DESIGN.md \u00a714)")
	)
	peers := peerFlags{}
	flag.Var(peers, "peer", "remote ring node: index=udpaddr[/tcpaddr] (repeatable)")
	flag.Parse()

	chainMBs := strings.Split(*chainSpec, ",")
	numMB := len(chainMBs)
	name := *mbName
	if name == "" && *index < numMB {
		name = chainMBs[*index]
	}
	// The receive goroutines are the workers: the resolved socket count is
	// the parallelism Monitor's counter groups are sized for.
	tcfg := trans.Config{Burst: *burst, MTUBudget: *mtuBudget, Sockets: *sockets, SocketBuf: *sockBuf}.WithDefaults()
	mb, err := buildMB(name, tcfg.Sockets)
	if err != nil {
		log.Fatalf("ftcd: %v", err)
	}

	// One queue, one queue worker, both idle: nothing in this process sends
	// to the local node from inside the fabric, and socket traffic never
	// queues.
	cfg := core.Config{F: *f, NumMB: numMB, Workers: 1, Burst: *burst}.WithDefaults()
	ring := cfg.Ring()
	if *index < 0 || *index >= ring.M() {
		log.Fatalf("ftcd: index %d out of ring range 0..%d", *index, ring.M()-1)
	}

	fabric := netsim.New(netsim.Config{})
	defer fabric.Stop()

	local := fabric.AddNode(ringID(*index), netsim.NodeConfig{Queues: 1, QueueCap: 4096})

	// Egress proxy: the bridge tunnels frames for this node to -egress.
	egressID := netsim.NodeID("")
	var peerList []trans.Peer
	for i := 0; i < ring.M(); i++ {
		if i == *index {
			continue
		}
		p, ok := peers[i]
		if !ok {
			log.Fatalf("ftcd: missing -peer for ring position %d", i)
		}
		peerList = append(peerList, p)
	}
	if *egress != "" {
		egressID = "ftc-egress"
		peerList = append(peerList, trans.Peer{ID: egressID, UDPAddr: *egress})
	}

	ringIDs := make([]netsim.NodeID, ring.M())
	for i := range ringIDs {
		ringIDs[i] = ringID(i)
	}
	replica := core.NewReplica(cfg, core.ReplicaSpec{
		Index:   *index,
		Sim:     local,
		Fabric:  fabric,
		RingIDs: ringIDs,
		Egress:  egressID,
		MB:      mb,
	})
	if *minTerm > 0 {
		// Raise the fence before the control plane is reachable: a boot-time
		// floor closes the window where a deposed leader could adopt a
		// freshly restarted replica with stale recovery commands.
		replica.FenceTerm(*minTerm)
	}
	bridge, err := trans.NewBridge(fabric, local.ID(), *listenUDP, *listenTCP, peerList, tcfg)
	if err != nil {
		log.Fatalf("ftcd: %v", err)
	}
	defer bridge.Close()
	// Started after the bridge so that it stops before the bridge closes:
	// Close waits on receive goroutines that are inside the pipeline. Bursts
	// that arrive before Start are dropped, and counted, in the fabric.
	replica.Start()
	defer replica.Stop()
	udpAddr, tcpAddr := bridge.Addrs()
	mbDesc := "extension replica (no middlebox)"
	if mb != nil {
		mbDesc = mb.Name()
	}
	log.Printf("ftcd: ring %d/%d hosting %s", *index, ring.M(), mbDesc)
	burstDesc := fmt.Sprintf("%d", cfg.Burst)
	if cfg.Burst == 0 {
		burstDesc = fmt.Sprintf("adaptive(max %d)", netsim.DefaultMaxBurst)
	}
	bs := bridge.Stats()
	// Socket-buffer truth logging: the kernel clamps (and on Linux
	// doubles) setsockopt requests, so report what it actually granted.
	log.Printf("ftcd: data plane %s, control plane %s (burst %s, mtu budget %d, %d sockets each read by one pipeline goroutine, rcvbuf %d, sndbuf %d)",
		udpAddr, tcpAddr, burstDesc, *mtuBudget,
		bs.Sockets, bs.EffRcvBuf, bs.EffSndBuf)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	s := replica.Stats()
	log.Printf("ftcd: rx=%d tx=%d egress=%d filtered=%d repairs=%d fenced_cmds=%d",
		s.RxFrames.Load(), s.TxFrames.Load(), s.Egress.Load(),
		s.Filtered.Load(), s.Repairs.Load(), s.FencedCmds.Load())
	// Goodput accounting on this replica's inter-replica hop: application
	// payload vs piggyback overhead vs total bytes sent (see core.Stats).
	app, pb, wireB := s.AppBytesOut.Load(), s.PiggybackBytesOut.Load(), s.WireBytesOut.Load()
	goodput := 0.0
	if wireB > 0 {
		goodput = float64(app) / float64(wireB)
	}
	log.Printf("ftcd: goodput app=%dB piggyback=%dB wire=%dB ratio=%.3f",
		app, pb, wireB, goodput)
	ts := bridge.Stats()
	log.Printf("ftcd: tunnel out=%d frames/%d dgrams in=%d frames/%d dgrams oversize=%d truncated=%d",
		ts.FramesOut, ts.DatagramsOut, ts.FramesIn, ts.DatagramsIn,
		ts.OversizeDrops, ts.TruncatedDatagrams)
	log.Printf("ftcd: tunnel syscalls send=%d recv=%d messages send=%d recv=%d send_errors=%d over %d sockets (rcvbuf %d, sndbuf %d)",
		ts.SendSyscalls, ts.RecvSyscalls, ts.SendMessages, ts.RecvMessages, ts.SendErrors,
		ts.Sockets, ts.EffRcvBuf, ts.EffSndBuf)
	bursts := replica.Sched().Bursts.Value()
	meanBurst := 0.0
	if bursts > 0 {
		meanBurst = float64(s.RxFrames.Load()) / float64(bursts)
	}
	_, _, dropped, _ := fabric.Stats()
	log.Printf("ftcd: sched bursts=%d mean_burst=%.1f dropped=%d", bursts, meanBurst, dropped)
}
