package tgen

import (
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

func TestSpecDefaults(t *testing.T) {
	s := Spec{}.WithDefaults()
	if s.Flows != 64 || s.PacketSize != 256 || s.DstPort != 80 {
		t.Fatalf("defaults = %+v", s)
	}
	tiny := Spec{PacketSize: 10}.WithDefaults()
	if tiny.PacketSize != MinPacketSize {
		t.Fatalf("tiny packet size = %d", tiny.PacketSize)
	}
}

func TestGeneratorBuildsDistinctFlows(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	f.AddNode("dst", netsim.NodeConfig{QueueCap: 4096})
	g, err := NewGenerator(f, "gen", "dst", Spec{Flows: 8, PacketSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, fr := range g.frames {
		p, err := wire.Parse(fr)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Buf) != 128 {
			t.Fatalf("frame size = %d", len(p.Buf))
		}
		key := p.FiveTuple().String()
		if seen[key] {
			t.Fatalf("duplicate flow %s", key)
		}
		seen[key] = true
	}
}

func TestBlastDeliversStampedFrames(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	dst := f.AddNode("dst", netsim.NodeConfig{QueueCap: 1 << 16})
	g, err := NewGenerator(f, "gen", "dst", Spec{Flows: 4, PacketSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	sent := g.Blast(20 * time.Millisecond)
	if sent == 0 {
		t.Fatal("nothing sent")
	}
	in, ok := dst.TryRecv(0)
	if !ok {
		t.Fatal("nothing delivered")
	}
	p, err := wire.Parse(in.Frame)
	if err != nil {
		t.Fatal(err)
	}
	pay := p.Payload()
	if len(pay) < payloadHdrLen {
		t.Fatal("payload too short")
	}
}

func TestOfferApproximatesRate(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	f.AddNode("dst", netsim.NodeConfig{QueueCap: 1 << 16})
	g, err := NewGenerator(f, "gen", "dst", Spec{Flows: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 10000.0
	sent := g.Offer(rate, 200*time.Millisecond)
	want := rate * 0.2
	if float64(sent) < want*0.5 || float64(sent) > want*2.0 {
		t.Fatalf("sent %d at %v pps over 200ms (want ~%v)", sent, rate, want)
	}
}

func TestSinkMeasuresLatency(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	s := NewSink(f, "sink")
	defer s.Stop()
	g, err := NewGenerator(f, "gen", "sink", Spec{Flows: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.SetLink("gen", "sink", netsim.LinkProfile{Latency: 5 * time.Millisecond})
	for i := 0; i < 10; i++ {
		g.sendOne(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Received() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of 10", s.Received())
		}
		time.Sleep(time.Millisecond)
	}
	sum := s.Latency().Summarize()
	if sum.Count != 10 {
		t.Fatalf("latency samples = %d", sum.Count)
	}
	if sum.P50 < 4*time.Millisecond {
		t.Fatalf("p50 = %v, want ≥ ~5ms link latency", sum.P50)
	}
}

func TestSinkIgnoresForeignPackets(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	s := NewSink(f, "sink")
	defer s.Stop()
	p, _ := wire.BuildUDP(wire.UDPSpec{
		SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Src: wire.Addr4(1, 1, 1, 1), Dst: wire.Addr4(2, 2, 2, 2),
		SrcPort: 1, DstPort: 2, Payload: []byte("not-tgen"),
	})
	f.Send("x", "sink", p.Buf) // unknown src node id is fine for Send? use a node
	gen := f.AddNode("gen", netsim.NodeConfig{})
	_ = gen.Send("sink", p.Buf)
	time.Sleep(10 * time.Millisecond)
	if s.Latency().Count() != 0 {
		t.Fatal("foreign packet produced a latency sample")
	}
}

func TestMeasureMaxThroughput(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	s := NewSink(f, "sink")
	defer s.Stop()
	g, err := NewGenerator(f, "gen", "sink", Spec{Flows: 4})
	if err != nil {
		t.Fatal(err)
	}
	rate := MeasureMaxThroughput(g, s, 100*time.Millisecond, 5)
	if rate <= 0 {
		t.Fatalf("rate = %v", rate)
	}
}

func TestMeasureLatencyUnderLoad(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	s := NewSink(f, "sink")
	defer s.Stop()
	g, err := NewGenerator(f, "gen", "sink", Spec{Flows: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := MeasureLatencyUnderLoad(g, s, 5000, 100*time.Millisecond)
	if sum.Count == 0 {
		t.Fatal("no latency samples under load")
	}
}
