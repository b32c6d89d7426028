package orch

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

func buildChain(t *testing.T, fcfg netsim.Config) (*netsim.Fabric, *core.Chain, *netsim.Node, *netsim.Node) {
	t.Helper()
	f := netsim.New(fcfg)
	gen := f.AddNode("gen", netsim.NodeConfig{QueueCap: 1 << 14})
	sink := f.AddNode("sink", netsim.NodeConfig{QueueCap: 1 << 14})
	mbs := []core.Middlebox{
		mbox.NewMonitor(1, 2),
		mbox.NewMonitor(1, 2),
		mbox.NewMonitor(1, 2),
	}
	cfg := core.Config{F: 1, Workers: 2, Partitions: 16, PropagateEvery: time.Millisecond}
	ch := core.NewChain(cfg, f, "oc", mbs, "sink")
	ch.Start()
	t.Cleanup(func() {
		ch.Stop()
		f.Stop()
	})
	return f, ch, gen, sink
}

func pump(t *testing.T, ch *core.Chain, gen, sink *netsim.Node, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := wire.BuildUDP(wire.UDPSpec{
			SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
			Src: wire.Addr4(10, 1, byte(i>>8), byte(i)), Dst: wire.Addr4(192, 0, 2, 1),
			SrcPort: uint16(2000 + i), DstPort: 80, Headroom: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen.Send(ch.IngressID(), p.Buf)
	}
	got := 0
	deadline := time.After(15 * time.Second)
	for got < n {
		select {
		case <-deadline:
			t.Fatalf("egress %d of %d", got, n)
		default:
		}
		if _, ok := sink.TryRecv(0); ok {
			got++
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestOrchestratorDetectsAndRecovers(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	o := New(Config{HeartbeatEvery: 5 * time.Millisecond, Misses: 2}, f, "orch", ch)
	o.Start()
	defer o.Stop()

	pump(t, ch, gen, sink, 50)
	oldID := ch.RingID(1)
	ch.Crash(1)

	deadline := time.Now().Add(10 * time.Second)
	for len(o.Reports()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("orchestrator never recovered the failed replica")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep := o.Reports()[0]
	if rep.Err != nil {
		t.Fatalf("recovery error: %v", rep.Err)
	}
	if rep.RingIndex != 1 {
		t.Fatalf("recovered index %d", rep.RingIndex)
	}
	if ch.RingID(1) == oldID {
		t.Fatal("routing not updated")
	}
	if rep.Total <= 0 || rep.StateFetch <= 0 {
		t.Fatalf("timings not recorded: %+v", rep)
	}
	// Traffic flows again and the counter picks up where it left off.
	pump(t, ch, gen, sink, 50)
	var total uint64
	for g := 0; g < 2; g++ {
		if v, ok := ch.Replica(1).Head().Store().Get(fmt.Sprintf("pkt-count-%d", g)); ok {
			total += binary.BigEndian.Uint64(v)
		}
	}
	if total != 100 {
		t.Fatalf("post-recovery count = %d, want 100", total)
	}
}

func TestManualRecoverReportsPhases(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	o := New(Config{}, f, "orch", ch)
	o.Start()
	defer o.Stop()
	pump(t, ch, gen, sink, 30)
	ch.Crash(2)
	rep := o.Recover(2)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Init < 0 || rep.StateFetch <= 0 || rep.Reroute < 0 {
		t.Fatalf("phase timings: %+v", rep)
	}
	if rep.Total < rep.StateFetch {
		t.Fatalf("total %v < fetch %v", rep.Total, rep.StateFetch)
	}
}

func TestRecoveryWithWANLatency(t *testing.T) {
	// Recovery across a simulated WAN: the state fetch should be dominated
	// by the round-trip latency to the state source.
	fcfg := netsim.Config{DefaultLink: netsim.LinkProfile{Latency: 10 * time.Millisecond}}
	f, ch, gen, sink := buildChain(t, fcfg)
	o := New(Config{HeartbeatTimeout: 100 * time.Millisecond}, f, "orch", ch)
	o.Start()
	defer o.Stop()
	pump(t, ch, gen, sink, 20)
	ch.Crash(1)
	rep := o.Recover(1)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// The new replica fetches state for its head group and one follower
	// group; each fetch pays ≥ 1 WAN RTT (20 ms).
	if rep.StateFetch < 20*time.Millisecond {
		t.Fatalf("state fetch %v, want ≥ 20ms over WAN", rep.StateFetch)
	}
}

func TestOrchestratorIgnoresHealthyChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		fcfg netsim.Config
		cfg  Config
	}{
		{"lan", netsim.Config{}, Config{HeartbeatEvery: 3 * time.Millisecond}},
		// 20 ms RTT: the timeout must clear it, or every ping is a miss.
		{"wan", netsim.Config{DefaultLink: netsim.LinkProfile{Latency: 10 * time.Millisecond}},
			Config{HeartbeatEvery: 3 * time.Millisecond, HeartbeatTimeout: 60 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, ch, gen, sink := buildChain(t, tc.fcfg)
			o := New(tc.cfg, f, "orch", ch)
			o.Start()
			defer o.Stop()
			pump(t, ch, gen, sink, 30)
			time.Sleep(100 * time.Millisecond)
			if len(o.Reports()) != 0 || o.Detected() != 0 {
				t.Fatalf("spurious recoveries (%d detected): %+v", o.Detected(), o.Reports())
			}
		})
	}
}

// TestManualRecoverRacingDetectorRecoversOnce runs a fast detector beside
// manual Recover calls: each crash must be repaired exactly once, however
// the two interleave. A 10 ms orchestrator link keeps detector pings to
// the crashed node in flight while the manual recovery reroutes past it;
// those misses must not count against the healthy replacement.
func TestManualRecoverRacingDetectorRecoversOnce(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	o := New(Config{HeartbeatEvery: 2 * time.Millisecond, HeartbeatTimeout: 100 * time.Millisecond, Misses: 2}, f, "orch", ch)
	far := netsim.LinkProfile{Latency: 10 * time.Millisecond}
	for i := 0; i < ch.Len(); i++ {
		f.SetLinkBoth(o.NodeID(), ch.RingID(i), far)
	}
	ch.OnSpawn = func(_ int, id netsim.NodeID) { f.SetLinkBoth(o.NodeID(), id, far) }
	o.Start()
	defer o.Stop()
	crashes := []int{1, 2, 0, 1}
	for _, idx := range crashes {
		pump(t, ch, gen, sink, 10)
		ch.Crash(idx)
		if rep := o.Recover(idx); rep.Err != nil {
			t.Fatalf("recovery of %d: %v", idx, rep.Err)
		}
	}
	time.Sleep(50 * time.Millisecond) // many detector periods
	reps := o.Reports()
	if len(reps) != len(crashes) {
		t.Fatalf("%d reports for %d crashes: %+v", len(reps), len(crashes), reps)
	}
}

func TestOnPhaseHookOrderAndHistograms(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	o := New(Config{}, f, "orch", ch)
	var phases []Phase
	o.OnPhase = func(ev PhaseEvent) {
		if ev.RingIndex != 1 {
			t.Errorf("phase %v for ring index %d, want 1", ev.Phase, ev.RingIndex)
		}
		if ev.Replacement == "" {
			t.Errorf("phase %v carries no replacement id", ev.Phase)
		}
		phases = append(phases, ev.Phase)
	}
	o.Start()
	defer o.Stop()
	pump(t, ch, gen, sink, 20)
	ch.Crash(1)
	rep := o.Recover(1)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	want := []Phase{PhaseSpawned, PhaseFetched, PhaseAdopted}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
	if o.RecoveryHist().Count() != 1 || o.FetchHist().Count() != 1 {
		t.Fatalf("histograms not recorded: recovery n=%d fetch n=%d",
			o.RecoveryHist().Count(), o.FetchHist().Count())
	}
	if o.RecoveryHist().Max() < rep.StateFetch {
		t.Fatalf("recovery hist max %v < state fetch %v", o.RecoveryHist().Max(), rep.StateFetch)
	}
}

func TestCrashDuringRecoveryFallsBackToAliveSource(t *testing.T) {
	// f=2: three-member groups. Crash replica 1; while its replacement is
	// being initialized, crash replica 2 as well (still ≤ f concurrent
	// failures). State recovery must fall back to the remaining alive
	// member, and both positions must be recoverable.
	fab := netsim.New(netsim.Config{})
	gen := fab.AddNode("gen", netsim.NodeConfig{QueueCap: 1 << 14})
	sink := fab.AddNode("sink", netsim.NodeConfig{QueueCap: 1 << 14})
	mbs := []core.Middlebox{
		mbox.NewMonitor(1, 2), mbox.NewMonitor(1, 2), mbox.NewMonitor(1, 2),
	}
	cfg := core.Config{F: 2, Workers: 2, Partitions: 16, PropagateEvery: time.Millisecond}
	ch := core.NewChain(cfg, fab, "oc", mbs, "sink")
	ch.Start()
	t.Cleanup(func() {
		ch.Stop()
		fab.Stop()
	})
	o := New(Config{}, fab, "orch", ch)
	var crashed atomic.Bool
	o.OnPhase = func(ev PhaseEvent) {
		if ev.Phase == PhaseSpawned && ev.RingIndex == 1 && crashed.CompareAndSwap(false, true) {
			ch.Crash(2)
		}
	}
	o.Start()
	defer o.Stop()
	pump(t, ch, gen, sink, 30)
	ch.Crash(1)
	if rep := o.Recover(1); rep.Err != nil {
		t.Fatalf("recovery of 1 with a mid-recovery correlated failure: %v", rep.Err)
	}
	if !crashed.Load() {
		t.Fatal("mid-recovery crash hook never fired")
	}
	if rep := o.Recover(2); rep.Err != nil {
		t.Fatalf("recovery of 2: %v", rep.Err)
	}
	pump(t, ch, gen, sink, 30)
	if err := ch.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ch.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

func TestOnRecoveryCallback(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	o := New(Config{}, f, "orch", ch)
	called := make(chan RecoveryReport, 1)
	o.OnRecovery = func(r RecoveryReport) {
		select {
		case called <- r:
		default:
		}
	}
	o.Start()
	defer o.Stop()
	pump(t, ch, gen, sink, 10)
	ch.Crash(0)
	o.Recover(0)
	select {
	case r := <-called:
		if r.RingIndex != 0 {
			t.Fatalf("callback index %d", r.RingIndex)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never invoked")
	}
}
