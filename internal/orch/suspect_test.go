package orch

import (
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// offer sends n fresh packets into the chain, one every gap, with source
// addresses from base up, and returns how many reached the sink by the
// time the last one was sent plus settle.
func offer(t *testing.T, ch *core.Chain, gen, sink *netsim.Node, base, n int, gap, settle time.Duration) int {
	t.Helper()
	got := 0
	drain := func() {
		for {
			if _, ok := sink.TryRecv(0); !ok {
				return
			}
			got++
		}
	}
	for i := base; i < base+n; i++ {
		p, err := wire.BuildUDP(wire.UDPSpec{
			SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
			Src: wire.Addr4(10, 2, byte(i>>8), byte(i)), Dst: wire.Addr4(192, 0, 2, 1),
			SrcPort: uint16(3000 + i), DstPort: 80, Headroom: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen.Send(ch.IngressID(), p.Buf)
		time.Sleep(gap)
		drain()
	}
	time.Sleep(settle)
	drain()
	return got
}

// TestDeadDataLinkIsRecovered downs both directions of the ring 0 ↔ 1 link
// for good under a default orchestrator. No heartbeat can see it: they run
// on the orchestrator's own links. Ring node 0's transfers stop coming
// back, the leader finds node 1 alive but unreachable from node 0, and
// after the heartbeat monitor's patience fail-stops and replaces it. The
// chain then delivers new packets again and its audits pass.
func TestDeadDataLinkIsRecovered(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	o := New(Config{}, f, "orch", ch)
	o.Start()
	defer o.Stop()
	pump(t, ch, gen, sink, 50)

	cut := ch.RingID(1)
	f.SetLinkBoth(ch.RingID(0), cut, netsim.LinkProfile{Down: true})
	deadline := time.Now().Add(5 * time.Second)
	for base := 0; ch.RingID(1) == cut || len(o.Reports()) == 0; base += 10 {
		if time.Now().After(deadline) {
			t.Fatalf("ring position 1 not replaced 5s after its data link died (refuted %d, detected %d)",
				o.Refuted(), o.Detected())
		}
		offer(t, ch, gen, sink, base, 10, time.Millisecond, 0)
	}
	rep := o.Reports()[0]
	if rep.Err != nil || rep.RingIndex != 1 || rep.Failed != cut {
		t.Fatalf("recovery report %+v, want position 1 replacing %s", rep, cut)
	}
	if got := offer(t, ch, gen, sink, 1000, 50, 200*time.Microsecond, 200*time.Millisecond); got == 0 {
		t.Fatal("no new packet delivered after the recovery")
	}
	if err := ch.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ch.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if n := len(o.Reports()); n != 1 {
		t.Fatalf("%d recoveries for one dead link: %+v", n, o.Reports())
	}
}

// TestSlowLinkSuspicionsAreRefuted puts 15 ms on both directions of the
// ring 1 ↔ 2 link, above resendAfter (10 ms at these settings). Packets go
// in bursts 40 ms apart: in each burst the heads keep making logs while
// the commits that answer them are still on the slow link, a stall longer
// than resendAfter, and suspicions fire. Each one's probe gets through
// within the heartbeat budget: every suspicion is refuted, nothing is
// recovered, and the chain converges.
func TestSlowLinkSuspicionsAreRefuted(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	o := New(Config{}, f, "orch", ch)
	o.Start()
	defer o.Stop()
	pump(t, ch, gen, sink, 20)

	f.SetLinkBoth(ch.RingID(1), ch.RingID(2), netsim.LinkProfile{Latency: 15 * time.Millisecond})
	got := 0
	for burst := 0; burst < 8; burst++ {
		got += offer(t, ch, gen, sink, 10*burst, 10, time.Millisecond, 40*time.Millisecond)
	}
	if got == 0 {
		t.Fatal("nothing delivered over the slow link")
	}
	if err := ch.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ch.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	o.Stop()
	if o.Refuted() == 0 {
		t.Fatal("no suspicion fired over a link slower than resendAfter")
	}
	if n := len(o.Reports()); n != 0 || o.Detected() != 0 {
		t.Fatalf("%d recoveries (%d detected) on a healthy chain: %+v", n, o.Detected(), o.Reports())
	}
}
