// Package exp implements the paper's evaluation (§7): one function per
// table and figure, each building the system under test (NF, FTC, FTMB, or
// FTMB+Snapshot), offering the workload the paper describes, and returning
// the rows/series the paper reports. The cmd/ftclab binary prints them and
// the repository's root benchmarks wrap them.
package exp

import (
	"fmt"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/ftmb"
	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/nf"
	"github.com/ftsfc/ftc/internal/tgen"
)

// Kind selects the system under test.
type Kind int

// Systems under test.
const (
	// NF is the non-fault-tolerant baseline.
	NF Kind = iota
	// FTC is this paper's system.
	FTC
	// FTMB is the state-of-the-art baseline (no snapshots).
	FTMB
	// FTMBSnap is FTMB with simulated periodic snapshots (§7.4).
	FTMBSnap
)

// String names the system like the paper's figure legends.
func (k Kind) String() string {
	switch k {
	case NF:
		return "NF"
	case FTC:
		return "FTC"
	case FTMB:
		return "FTMB"
	case FTMBSnap:
		return "FTMB+Snapshot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params scales the experiments: ftclab uses the defaults; benchmarks and
// tests shrink them.
type Params struct {
	// RunTime is the measurement window per data point (paper: 10 s;
	// default here 1 s — in-process rates stabilize much faster).
	RunTime time.Duration
	// Samples is the number of rate samples per window (paper: 10).
	Samples int
	// Flows is the number of generator flows.
	Flows int
	// F is the replication factor minus one (paper default f=1).
	F int
	// PacketSize is the default frame size (paper: 256 B).
	PacketSize int
	// Burst is the data-plane burst size for every stage (receive drain,
	// batched transactions, grouped sends); 0 keeps each layer's default —
	// the NAPI-style adaptive controller in core/nf, each layer's fixed
	// default elsewhere. 1 degenerates to per-packet processing.
	Burst int
	// Skew, when > 1, makes the generator draw flows from a Zipf
	// distribution with parameter s = Skew and aligns every flow onto one
	// RSS ingress queue of a `workers`-queue receiver (tgen.Spec.Skew /
	// AlignQueues): the elephant-queue worst case that work stealing
	// redistributes. 0 keeps the uniform round-robin workload.
	Skew float64
	// FlowTTL, when > 0, ages idle per-flow state out of FTC stores: any
	// middlebox implementing core.FlowTTLer has its flow entries deleted
	// (through the normal replication path) after this much idle time.
	// Zero keeps aging off. FTC-only; the NF/FTMB harnesses ignore it.
	FlowTTL time.Duration
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.RunTime <= 0 {
		p.RunTime = time.Second
	}
	if p.Samples <= 0 {
		p.Samples = 10
	}
	if p.Flows <= 0 {
		p.Flows = 128
	}
	if p.F <= 0 {
		p.F = 1
	}
	if p.PacketSize <= 0 {
		p.PacketSize = 256
	}
	return p
}

// MBFactory builds a fresh middlebox chain per run (middleboxes are
// stateful, so every measurement gets new instances).
type MBFactory func(workers int) []core.Middlebox

// SUT is a deployed system under test with its traffic harness.
type SUT struct {
	Kind    Kind
	Fabric  *netsim.Fabric
	Gen     *tgen.Generator
	Sink    *tgen.Sink
	Servers int
	chain   *core.Chain // FTC only; nil for the other systems
	closers []func()
}

// Goodput reports the FTC chain's app-bytes/wire-bytes ratio summed over all
// inter-replica hops since deployment: the fraction of replica egress that is
// application payload rather than piggyback overhead (trailers, carrier and
// transfer frames, spillover RPC bodies). It returns 0 for non-FTC systems
// and before any packet has been forwarded.
func (s *SUT) Goodput() float64 {
	if s.chain == nil {
		return 0
	}
	var app, wire uint64
	for i := 0; i < s.chain.Len(); i++ {
		st := s.chain.Replica(i).Stats()
		app += st.AppBytesOut.Load()
		wire += st.WireBytesOut.Load()
	}
	if wire == 0 {
		return 0
	}
	return float64(app) / float64(wire)
}

// Close tears the SUT down.
func (s *SUT) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.Sink.Stop()
	s.Fabric.Stop()
}

// buildOpts tunes BuildSUT.
type buildOpts struct {
	workers    int
	packetSize int
	flows      int
	f          int
	burst      int
	skew       float64
	flowTTL    time.Duration
	fabricCfg  netsim.Config
}

// BuildSUT deploys system kind running the factory's chain with the given
// worker count and traffic spec.
func BuildSUT(kind Kind, factory MBFactory, p Params, workers int) (*SUT, error) {
	p = p.WithDefaults()
	return buildSUT(kind, factory, buildOpts{
		workers:    workers,
		packetSize: p.PacketSize,
		flows:      p.Flows,
		f:          p.F,
		burst:      p.Burst,
		skew:       p.Skew,
		flowTTL:    p.FlowTTL,
	})
}

func buildSUT(kind Kind, factory MBFactory, o buildOpts) (*SUT, error) {
	if o.workers <= 0 {
		o.workers = 1
	}
	fabric := netsim.New(o.fabricCfg)
	sink := tgen.NewSink(fabric, "sink")
	mbs := factory(o.workers)
	s := &SUT{Kind: kind, Fabric: fabric, Sink: sink}

	var ingress netsim.NodeID
	switch kind {
	case NF:
		c := nf.NewChain(nf.Config{Workers: o.workers, QueueCap: 4096, Burst: o.burst}, fabric, "nf", mbs, sink.ID())
		c.Start()
		s.closers = append(s.closers, c.Stop)
		s.Servers = len(mbs)
		ingress = c.IngressID()
	case FTC:
		// A short propagation period keeps single-packet (closed-loop)
		// release latency from being bounded by the idle timer.
		cfg := core.Config{F: o.f, Workers: o.workers, QueueCap: 4096,
			PropagateEvery: 200 * time.Microsecond, Burst: o.burst, FlowTTL: o.flowTTL}
		c := core.NewChain(cfg, fabric, "ftc", mbs, sink.ID())
		c.Start()
		s.chain = c
		s.closers = append(s.closers, c.Stop)
		s.Servers = c.Len()
		ingress = c.IngressID()
	case FTMB, FTMBSnap:
		cfg := ftmb.Config{Workers: o.workers, QueueCap: 4096, Burst: o.burst}
		if kind == FTMBSnap {
			// §7.4: a 6 ms artificial delay every 50 ms per middlebox.
			cfg.SnapshotEvery = 50 * time.Millisecond
			cfg.SnapshotStall = 6 * time.Millisecond
		}
		c := ftmb.NewChain(cfg, fabric, "ftmb", mbs, sink.ID())
		c.Start()
		s.closers = append(s.closers, c.Stop)
		s.Servers = c.Servers()
		ingress = c.IngressID()
	default:
		fabric.Stop()
		return nil, fmt.Errorf("exp: unknown kind %d", kind)
	}

	spec := tgen.Spec{
		Flows:      o.flows,
		PacketSize: o.packetSize,
		Burst:      o.burst,
		Skew:       o.skew,
	}
	if o.skew > 1 {
		// Elephant-queue alignment: every flow collides on one RSS queue of
		// a Workers-queue receiver, i.e. on one worker's home partitions.
		// FTC replicas expose a multiple of Workers flow partitions
		// (core.Config.NumIngressQueues), so the same flows spread across
		// that worker's home partitions for its siblings to steal.
		spec.AlignQueues = o.workers
	}
	gen, err := tgen.NewGenerator(fabric, "gen", ingress, spec)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.Gen = gen
	return s, nil
}

// MaxThroughput deploys the SUT and measures its maximum sustained egress
// rate in packets per second (§7.1 methodology).
func MaxThroughput(kind Kind, factory MBFactory, p Params, workers int) (float64, error) {
	p = p.WithDefaults()
	s, err := BuildSUT(kind, factory, p, workers)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	return tgen.MeasureMaxThroughput(s.Gen, s.Sink, p.RunTime, p.Samples), nil
}

// LatencyUnderLoad deploys the SUT, offers rate pps, and reports the
// latency summary.
func LatencyUnderLoad(kind Kind, factory MBFactory, p Params, workers int, rate float64) (metrics.Summary, error) {
	p = p.WithDefaults()
	s, err := BuildSUT(kind, factory, p, workers)
	if err != nil {
		return metrics.Summary{}, err
	}
	defer s.Close()
	return tgen.MeasureLatencyUnderLoad(s.Gen, s.Sink, rate, p.RunTime), nil
}

// LatencyCDF offers rate pps and returns the sink's full latency CDF
// (Figure 11 methodology).
func LatencyCDF(kind Kind, factory MBFactory, p Params, workers int, rate float64) ([]metrics.CDFPoint, error) {
	p = p.WithDefaults()
	s, err := BuildSUT(kind, factory, p, workers)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.Sink.Latency().Reset()
	s.Gen.Offer(rate, p.RunTime)
	time.Sleep(50 * time.Millisecond)
	return s.Sink.Latency().CDF(), nil
}
