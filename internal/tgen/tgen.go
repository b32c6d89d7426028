// Package tgen is the traffic generation and measurement harness, standing
// in for the paper's MoonGen (latency) and pktgen (throughput) setup (§7.1).
// It builds realistic multi-flow UDP workloads, offers them open-loop at a
// fixed rate or at maximum speed, embeds nanosecond send timestamps in
// payloads, and measures egress throughput and per-packet latency at a sink.
package tgen

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// payload layout: u32 magic | u32 flowID | u64 seq | i64 sendUnixNano | pad
const (
	payloadMagic  = 0xF7C0BEEF
	payloadHdrLen = 4 + 4 + 8 + 8
	// MinPacketSize is the smallest frame tgen can build (headers + payload
	// header).
	MinPacketSize = wire.EthernetHeaderLen + wire.IPv4MinHeaderLen + wire.UDPHeaderLen + payloadHdrLen
)

// Spec describes a synthetic workload.
type Spec struct {
	// Flows is the number of distinct five-tuples (default 64).
	Flows int
	// PacketSize is the total frame size in bytes (default 256, the
	// paper's default; §7.1).
	PacketSize int
	// DstPort of all flows (default 80).
	DstPort uint16
	// SrcBase is the first source address; flows increment from it.
	SrcBase wire.IPv4Addr
	// Dst is the destination address of all flows.
	Dst wire.IPv4Addr
	// Headroom reserved in each frame for FTC trailers.
	Headroom int
	// Burst is how many frames the generator stamps and hands to the fabric
	// per transmit call (default 32, matching the data plane's receive
	// burst). Burst 1 degenerates to per-packet sends.
	Burst int
}

// WithDefaults fills zero fields.
func (s Spec) WithDefaults() Spec {
	if s.Flows <= 0 {
		s.Flows = 64
	}
	if s.PacketSize < MinPacketSize {
		if s.PacketSize == 0 {
			s.PacketSize = 256
		} else {
			s.PacketSize = MinPacketSize
		}
	}
	if s.DstPort == 0 {
		s.DstPort = 80
	}
	var zero wire.IPv4Addr
	if s.SrcBase == zero {
		s.SrcBase = wire.Addr4(10, 10, 0, 1)
	}
	if s.Dst == zero {
		s.Dst = wire.Addr4(192, 0, 2, 1)
	}
	if s.Headroom <= 0 {
		s.Headroom = 1024
	}
	if s.Burst <= 0 {
		s.Burst = 32
	}
	return s
}

// Generator injects workload frames into a fabric node.
type Generator struct {
	spec   Spec
	node   *netsim.Node
	target netsim.NodeID
	frames [][]byte
	burst  [][]byte // scratch reused by sendChunk
	seq    atomic.Uint64
	sent   metrics.Counter
}

// NewGenerator creates a generator on its own fabric node, pre-building one
// template frame per flow.
func NewGenerator(fabric *netsim.Fabric, id, target netsim.NodeID, spec Spec) (*Generator, error) {
	spec = spec.WithDefaults()
	g := &Generator{
		spec:   spec,
		node:   fabric.AddNode(id, netsim.NodeConfig{}),
		target: target,
	}
	for i := 0; i < spec.Flows; i++ {
		buf, err := g.buildFlow(i)
		if err != nil {
			return nil, err
		}
		g.frames = append(g.frames, buf)
	}
	return g, nil
}

// buildFlow builds flow i's template frame: source address and port
// increment from the spec base.
func (g *Generator) buildFlow(i int) ([]byte, error) {
	spec := g.spec
	payloadLen := spec.PacketSize - (wire.EthernetHeaderLen + wire.IPv4MinHeaderLen + wire.UDPHeaderLen)
	n := spec.SrcBase.Uint32() + uint32(i)
	src := wire.Addr4(byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	payload := make([]byte, payloadLen)
	binary.BigEndian.PutUint32(payload[0:4], payloadMagic)
	binary.BigEndian.PutUint32(payload[4:8], uint32(i))
	p, err := wire.BuildUDP(wire.UDPSpec{
		SrcMAC: wire.MAC{0x02, 0x10, 0, 0, byte(i >> 8), byte(i)},
		DstMAC: wire.MAC{0x02, 0x20, 0, 0, 0, 1},
		Src:    src, Dst: spec.Dst,
		SrcPort: uint16(1024 + i%60000), DstPort: spec.DstPort,
		Payload:  payload,
		Headroom: spec.Headroom,
	})
	if err != nil {
		return nil, fmt.Errorf("tgen: building flow %d: %w", i, err)
	}
	return p.Buf, nil
}

// Sent reports the number of frames injected so far.
func (g *Generator) Sent() uint64 { return g.sent.Value() }

// SendOne stamps and transmits one frame of flow i (mod the flow count).
// Callers must not invoke SendOne concurrently.
func (g *Generator) SendOne(i int) error { return g.sendOne(i) }

// SendChunk stamps and transmits up to n frames starting at flow index i
// in one fabric call (see sendChunk), returning how many frames were
// offered. It amortizes per-send route resolution, so a single caller can
// offer several times SendOne's rate — benchmark pumps use it to
// oversubscribe multi-worker systems. Not safe for concurrent use.
func (g *Generator) SendChunk(i, n int) (int, error) { return g.sendChunk(i, n) }

// sendOne stamps and transmits one flow's template. Because the fabric
// copies frames on Send, mutating the template in place between sends is
// safe with a single sender goroutine per template range.
func (g *Generator) sendOne(i int) error {
	err := g.node.Send(g.target, g.stampBuf(g.frames[i%len(g.frames)]))
	if err == nil {
		g.sent.Inc()
	}
	return err
}

// stampBuf writes the next sequence number and a fresh timestamp into a
// flow frame and disables the now-stale UDP checksum (legal for UDP/IPv4,
// the way high-rate generators do).
func (g *Generator) stampBuf(frame []byte) []byte {
	payloadOff := wire.EthernetHeaderLen + wire.IPv4MinHeaderLen + wire.UDPHeaderLen
	seq := g.seq.Add(1)
	binary.BigEndian.PutUint64(frame[payloadOff+8:], seq)
	binary.BigEndian.PutUint64(frame[payloadOff+16:], uint64(time.Now().UnixNano()))
	binary.BigEndian.PutUint16(frame[wire.EthernetHeaderLen+wire.IPv4MinHeaderLen+6:], 0)
	return frame
}

// sendChunk stamps and transmits up to n frames starting at flow index i in
// one fabric call: the route resolves once per chunk instead of once per
// frame. Chunks are capped at the flow count — the fabric copies frames
// only at transmit time, so a chunk must not contain the same mutable
// template twice. Returns how many frames were handed to the fabric.
func (g *Generator) sendChunk(i, n int) (int, error) {
	if n > len(g.frames) {
		n = len(g.frames)
	}
	if n <= 1 {
		if err := g.sendOne(i); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if cap(g.burst) < n {
		g.burst = make([][]byte, n)
	}
	b := g.burst[:n]
	for k := 0; k < n; k++ {
		b[k] = g.stampBuf(g.frames[(i+k)%len(g.frames)])
	}
	err := g.node.SendBurst(g.target, b)
	if err != nil {
		return 0, err
	}
	// Per-frame semantics match Send: frames tail-drop independently at a
	// full ingress, and sent counts offered frames either way.
	g.sent.Add(uint64(n))
	return n, nil
}

// Blast sends as fast as possible for the duration from one goroutine,
// applying backpressure when the target's ingress reports pressure is not
// observable — it simply offers maximum load, as pktgen does for the
// maximum-throughput measurements.
func (g *Generator) Blast(d time.Duration) uint64 {
	start := g.sent.Value()
	deadline := time.Now().Add(d)
	i := 0
	for time.Now().Before(deadline) {
		for k := 0; k < 64; {
			sent, err := g.sendChunk(i, g.spec.Burst)
			if err != nil {
				return g.sent.Value() - start
			}
			i += sent
			k += sent
		}
		// Yield so the measured pipeline gets CPU time: a hardware pktgen
		// runs on its own machine, this one shares the scheduler.
		runtime.Gosched()
	}
	return g.sent.Value() - start
}

// Offer sends at the given packets-per-second rate for the duration.
func (g *Generator) Offer(rate float64, d time.Duration) uint64 {
	if rate <= 0 {
		return 0
	}
	start := g.sent.Value()
	interval := time.Duration(float64(time.Second) / rate)
	// Batch sends so pacing overhead stays low at high rates.
	batch := 1
	if interval < 20*time.Microsecond {
		batch = int(20*time.Microsecond/interval) + 1
		interval = time.Duration(batch) * interval
	}
	deadline := time.Now().Add(d)
	next := time.Now()
	i := 0
	for time.Now().Before(deadline) {
		for k := 0; k < batch; {
			n := g.spec.Burst
			if rem := batch - k; n > rem {
				n = rem
			}
			sent, err := g.sendChunk(i, n)
			if err != nil {
				return g.sent.Value() - start
			}
			i += sent
			k += sent
		}
		next = next.Add(interval)
		if sleep := time.Until(next); sleep > 0 {
			time.Sleep(sleep)
		}
	}
	return g.sent.Value() - start
}

// Sink receives chain egress, counting packets and sampling latency from
// the embedded timestamps.
type Sink struct {
	node     *netsim.Node
	received metrics.Counter
	badMagic metrics.Counter
	hist     *metrics.Histogram
	wg       sync.WaitGroup
}

// NewSink creates a sink on its own fabric node and starts its collector.
func NewSink(fabric *netsim.Fabric, id netsim.NodeID) *Sink {
	s := &Sink{
		node: fabric.AddNode(id, netsim.NodeConfig{QueueCap: 1 << 16}),
		hist: metrics.NewHistogram(),
	}
	s.wg.Add(1)
	go s.collect()
	return s
}

// ID returns the sink's fabric node id.
func (s *Sink) ID() netsim.NodeID { return s.node.ID() }

// Stop terminates the collector.
func (s *Sink) Stop() {
	s.node.Crash()
	s.wg.Wait()
}

func (s *Sink) collect() {
	defer s.wg.Done()
	payloadMin := payloadHdrLen
	var pkt wire.Packet // reused: collect is the only goroutine touching it
	in := make([]netsim.Inbound, 32)
	for {
		cnt := s.node.RecvBurst(0, in)
		if cnt == 0 {
			return
		}
		for i := 0; i < cnt; i++ {
			s.account(&pkt, in[i].Frame, payloadMin)
			// The sink is the end of the line: every frame goes back to the pool.
			netsim.ReleaseFrame(in[i].Frame)
			in[i] = netsim.Inbound{}
		}
	}
}

func (s *Sink) account(p *wire.Packet, frame []byte, payloadMin int) {
	now := time.Now().UnixNano()
	if err := wire.ParseInto(p, frame); err != nil {
		s.badMagic.Inc()
		return
	}
	s.received.Inc()
	pay := p.Payload()
	if len(pay) < payloadMin || binary.BigEndian.Uint32(pay[0:4]) != payloadMagic {
		s.badMagic.Inc()
		return
	}
	sent := int64(binary.BigEndian.Uint64(pay[16:24]))
	if sent > 0 && now > sent {
		s.hist.Record(time.Duration(now - sent))
	}
}

// Received reports the number of packets that reached the sink.
func (s *Sink) Received() uint64 { return s.received.Value() }

// Counter exposes the receive counter for rate sampling.
func (s *Sink) Counter() *metrics.Counter { return &s.received }

// Latency returns the sink's latency histogram.
func (s *Sink) Latency() *metrics.Histogram { return s.hist }

// MeasureMaxThroughput runs the paper's throughput methodology: offer
// maximum load for the run time, sample the egress rate every interval, and
// report the mean of the samples (§7.1 reports the average of per-second
// maximum throughput samples over a 10 s run; intervals scale down for
// in-process runs).
func MeasureMaxThroughput(g *Generator, s *Sink, run time.Duration, samples int) float64 {
	if samples <= 0 {
		samples = 10
	}
	done := make(chan struct{})
	go func() {
		g.Blast(run)
		close(done)
	}()
	sampler := metrics.NewRateSampler(s.Counter())
	interval := run / time.Duration(samples+1)
	t := time.NewTicker(interval)
	defer t.Stop()
	// The first interval is warmup (queue fill, allocator ramp); discard it.
	<-t.C
	sampler.Sample()
	var rates []float64
	for i := 0; i < samples; i++ {
		<-t.C
		rates = append(rates, sampler.Sample())
	}
	<-done
	var sum float64
	for _, r := range rates {
		sum += r
	}
	return sum / float64(len(rates))
}

// MeasureLatencyUnderLoad offers a fixed rate and reports the latency
// summary observed at the sink during the run (Figure 8 methodology).
func MeasureLatencyUnderLoad(g *Generator, s *Sink, rate float64, run time.Duration) metrics.Summary {
	s.Latency().Reset()
	g.Offer(rate, run)
	// Small drain period so in-flight packets are counted.
	time.Sleep(50 * time.Millisecond)
	return s.Latency().Summarize()
}
