package main

import (
	"fmt"
	"time"

	"github.com/ftsfc/ftc"
	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/nf"
	"github.com/ftsfc/ftc/internal/tgen"
	"github.com/ftsfc/ftc/internal/trans"
	"github.com/ftsfc/ftc/internal/wire"
)

// pinnedSeconds is BENCHMARK.json's run_seconds. Fixed packet counts (the
// setup warm-up, the layer replay) are given for a run of this length and
// scale down with -seconds, so the smoke test does 1/100 of the work.
const pinnedSeconds = 15

// workload is one set of inputs. Each exists to put most of its work on
// layers the others leave nearly idle; see README.md for the table.
type workload struct {
	name string
	why  string
	// mbs builds a fresh middlebox chain; FTC and the NF twin each get
	// their own instances.
	mbs     func() []ftc.Middlebox
	workers int
	frame   int // frame size in bytes
	flows   int
	// warmup is the fixed packet count each setup pushes through both
	// systems; it installs every flow and makes setup_s work, not a timer
	// reading.
	warmup int
	// bridged puts every replica, the generator and the sink in fabrics of
	// their own, joined by trans bridges over loopback UDP.
	bridged bool
	// crash adds the orchestrator and the crash phase.
	crash bool
}

var (
	natExt = ftc.Addr4(203, 0, 113, 1)
	natInt = ftc.Addr4(10, 0, 0, 0)
)

var workloads = []workload{
	{
		name:    "gen-small",
		why:     "smallest frame, one write transaction per packet: per-packet fixed cost (parse, head transaction, piggyback codec, one fabric hop) is nearly all the work",
		mbs:     func() []ftc.Middlebox { return []ftc.Middlebox{ftc.NewGen(16, 16)} },
		workers: 1, frame: 128, flows: 64, warmup: 150_000,
	},
	{
		name: "nat-mt",
		why:  "read-only transactions over 16384 flows from two workers: multi-queue RSS, partition locks and the work-stealing scheduler; catches a write-path gain that costs the read path",
		mbs: func() []ftc.Middlebox {
			return []ftc.Middlebox{ftc.NewMazuNAT(natExt, 10000, 40000, natInt, 8)}
		},
		workers: 2, frame: 256, flows: 16384, warmup: 150_000,
	},
	{
		name: "bridge3",
		why:  "three replicas joined by UDP bridges on loopback, 1 kB frames, 256 B state: datagram packing, syscalls and trailer copies dominate, core logic is a small share",
		mbs: func() []ftc.Middlebox {
			return []ftc.Middlebox{ftc.NewGen(256, 16), ftc.NewGen(256, 16), ftc.NewGen(256, 16)}
		},
		workers: 1, frame: 1024, flows: 64, warmup: 40_000, bridged: true,
	},
	{
		name: "rec-chain3",
		why:  "the paper's Ch-Rec (Firewall, Monitor, SimpleNAT) then repeated crashes: follower apply, wrapped group, egress hold, commit dissemination, and detect-spawn-fetch-reroute",
		mbs: func() []ftc.Middlebox {
			return []ftc.Middlebox{
				ftc.NewFirewall(nil, true),
				ftc.NewMonitor(1, 1),
				ftc.NewSimpleNAT(natExt, 10000, 40000),
			}
		},
		workers: 1, frame: 256, flows: 16384, warmup: 80_000, crash: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spec derives the traffic from the seed: the source block and the
// destination port move, so flows hash to other partitions and queues. The
// program under test sees only the frames. Sources stay inside 10/8, the
// NATs' internal network.
func (w workload) spec(seed int64) ftc.TrafficSpec {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	return ftc.TrafficSpec{
		Flows:      w.flows,
		PacketSize: w.frame,
		SrcBase:    ftc.Addr4(10, byte(1+(s>>56)%200), byte(s>>48), 1),
		DstPort:    uint16(1024 + (s>>32)%50000),
	}
}

func (w workload) chainConfig(nmb int) core.Config {
	return core.Config{F: 1, NumMB: nmb, Workers: w.workers, QueueCap: 4096, PropagateEvery: 200 * time.Microsecond}
}

// sut is one system under test with its traffic harness: the FTC chain or
// the NF twin.
type sut struct {
	gen  *tgen.Generator
	sink *tgen.Sink
	// FTC only.
	chain    *core.Chain       // nil when bridged or NF
	replicas []*core.Replica   // bridged FTC only; in-process chains ask the chain
	ring     core.Ring         // bridged FTC only
	bridges  []*trans.Bridge   // bridged FTC only
	orch     *ftc.Orchestrator // crash workloads only
	reports  chan ftc.RecoveryReport
	// fabrics: one for an in-process system; bridged, one per ring position
	// followed by the generator's and the sink's.
	fabrics []*netsim.Fabric
	stops   []func() // run in reverse order
}

// fabricOf returns the fabric ring position i lives on.
func (s *sut) fabricOf(i int) *netsim.Fabric {
	if len(s.fabrics) == 1 {
		return s.fabrics[0]
	}
	return s.fabrics[i]
}

func (s *sut) stop() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// liveReplicas returns the replicas serving the ring right now.
func (s *sut) liveReplicas() []*core.Replica {
	if s.chain == nil {
		return s.replicas
	}
	out := make([]*core.Replica, s.chain.Len())
	for i := range out {
		out[i] = s.chain.Replica(i)
	}
	return out
}

func buildNF(w workload, spec ftc.TrafficSpec) (*sut, error) {
	fabric := ftc.NewFabric(ftc.FabricConfig{})
	s := &sut{sink: ftc.NewSink(fabric, "sink"), fabrics: []*netsim.Fabric{fabric}}
	chain := nf.NewChain(nf.Config{Workers: w.workers, QueueCap: 4096}, fabric, "nf", w.mbs(), s.sink.ID())
	chain.Start()
	s.stops = append(s.stops, fabric.Stop, s.sink.Stop, chain.Stop)
	gen, err := ftc.NewGenerator(fabric, "gen", chain.IngressID(), spec)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gen = gen
	return s, nil
}

func buildFTC(w workload, spec ftc.TrafficSpec) (*sut, error) {
	if w.bridged {
		return buildBridged(w, spec)
	}
	mbs := w.mbs()
	fabric := ftc.NewFabric(ftc.FabricConfig{})
	s := &sut{sink: ftc.NewSink(fabric, "sink"), fabrics: []*netsim.Fabric{fabric}}
	s.chain = ftc.NewChain(w.chainConfig(len(mbs)), fabric, "ftc", mbs, s.sink.ID())
	s.chain.Start()
	s.stops = append(s.stops, fabric.Stop, s.sink.Stop, s.chain.Stop)
	gen, err := ftc.NewGenerator(fabric, "gen", s.chain.IngressID(), spec)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gen = gen
	if w.crash {
		s.orch = ftc.NewOrchestrator(ftc.OrchestratorConfig{}, fabric, "orch", s.chain)
		// Sized to the most crashes a run can inject, so the recovery path
		// never blocks on the harness.
		s.reports = make(chan ftc.RecoveryReport, 64)
		s.orch.OnRecovery = func(r ftc.RecoveryReport) {
			select {
			case s.reports <- r:
			default:
			}
		}
		s.orch.Start()
		s.stops = append(s.stops, s.orch.Stop)
	}
	return s, nil
}

// buildBridged deploys the chain the way ftcd does: one fabric per replica,
// plus one each for the generator and the sink, every hop a UDP datagram on
// loopback.
func buildBridged(w workload, spec ftc.TrafficSpec) (*sut, error) {
	mbs := w.mbs()
	cfg := w.chainConfig(len(mbs))
	m := cfg.Ring().M()
	tcfg := trans.Config{SocketBuf: 4 << 20}
	s := &sut{ring: cfg.Ring()}

	type proc struct {
		id     netsim.NodeID
		fabric *netsim.Fabric
		bridge *trans.Bridge
		udp    string
		tcp    string
	}
	newProc := func(id netsim.NodeID) *proc {
		p := &proc{id: id, fabric: ftc.NewFabric(ftc.FabricConfig{})}
		s.fabrics = append(s.fabrics, p.fabric)
		s.stops = append(s.stops, p.fabric.Stop)
		return p
	}
	listen := func(p *proc) error {
		b, err := trans.NewBridge(p.fabric, p.id, "", "", nil, tcfg)
		if err != nil {
			return fmt.Errorf("bridge for %s: %w", p.id, err)
		}
		p.bridge = b
		p.udp, p.tcp = b.Addrs()
		s.bridges = append(s.bridges, b)
		s.stops = append(s.stops, b.Close)
		return nil
	}
	fail := func(err error) (*sut, error) {
		s.stop()
		return nil, err
	}

	ringIDs := make([]netsim.NodeID, m)
	for i := range ringIDs {
		ringIDs[i] = netsim.NodeID(fmt.Sprintf("ftc-r%d", i))
	}
	procs := make([]*proc, m)
	for i := range procs {
		p := newProc(ringIDs[i])
		procs[i] = p
		// One ingress queue: the bridged workload runs one worker per replica.
		local := p.fabric.AddNode(p.id, netsim.NodeConfig{Queues: 1, QueueCap: cfg.QueueCap, Selector: wire.RSSSelector})
		var mb core.Middlebox
		if i < len(mbs) {
			mb = mbs[i]
		}
		var egress netsim.NodeID
		if i == m-1 {
			egress = "sink"
		}
		r := core.NewReplica(cfg, core.ReplicaSpec{
			Index: i, Sim: local, Fabric: p.fabric, RingIDs: ringIDs, Egress: egress, MB: mb,
		})
		s.replicas = append(s.replicas, r)
		if err := listen(p); err != nil {
			return fail(err)
		}
	}
	genProc, sinkProc := newProc("gen"), newProc("sink")
	s.sink = ftc.NewSink(sinkProc.fabric, "sink")
	s.stops = append(s.stops, s.sink.Stop)
	for _, p := range []*proc{genProc, sinkProc} {
		if err := listen(p); err != nil {
			return fail(err)
		}
	}

	peer := func(p *proc) trans.Peer { return trans.Peer{ID: p.id, UDPAddr: p.udp, TCPAddr: p.tcp} }
	for i, p := range procs {
		for j, q := range procs {
			if i != j {
				if err := p.bridge.AddPeer(peer(q)); err != nil {
					return fail(err)
				}
			}
		}
	}
	if err := procs[m-1].bridge.AddPeer(peer(sinkProc)); err != nil {
		return fail(err)
	}
	if err := genProc.bridge.AddPeer(peer(procs[0])); err != nil {
		return fail(err)
	}
	for _, r := range s.replicas {
		r.Start()
		s.stops = append(s.stops, r.Stop)
	}
	gen, err := ftc.NewGenerator(genProc.fabric, "gen", ringIDs[0], spec)
	if err != nil {
		return fail(err)
	}
	s.gen = gen
	return s, nil
}
