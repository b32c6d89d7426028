package mbox

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// procRig runs one middlebox's Process through a warm state.Batch, the
// path both the FTC replicas and the NF twin take. Every run first copies
// the packet from its template: Process rewrites headers in place, so a
// reused frame would come back as a different flow.
type procRig struct {
	mb      core.Middlebox
	batch   *state.Batch
	tmpl    []byte
	frame   []byte
	pkt     wire.Packet
	verdict core.Verdict
	body    func(tx state.Txn) error // built once: a per-run closure would allocate
}

func newProcRig(mb core.Middlebox, s *state.Store) *procRig {
	r := &procRig{mb: mb, batch: s.NewBatch()}
	r.body = func(tx state.Txn) error {
		v, err := r.mb.Process(&r.pkt, tx)
		r.verdict = v
		return err
	}
	return r
}

// use makes p the template every later run copies.
func (r *procRig) use(p *wire.Packet) {
	r.tmpl = append(r.tmpl[:0], p.Buf...)
	r.frame = make([]byte, len(r.tmpl))
}

// run processes one copy of the template and returns the verdict.
func (r *procRig) run(tb testing.TB) core.Verdict {
	copy(r.frame, r.tmpl)
	if err := wire.ParseInto(&r.pkt, r.frame); err != nil {
		tb.Fatal(err)
	}
	if _, err := r.batch.Exec(r.body); err != nil {
		tb.Fatalf("%s: %v", r.mb.Name(), err)
	}
	return r.verdict
}

var (
	rigExt    = wire.Addr4(203, 0, 113, 1)
	rigInside = wire.Addr4(10, 0, 0, 5)
	rigRemote = wire.Addr4(8, 8, 8, 8)
)

// procCase is one middlebox on an established flow. setup, when set, is
// processed once before the measured packet (MazuNAT inbound needs the
// outbound packet that created its reverse mapping).
type procCase struct {
	name   string
	mb     func() core.Middlebox
	setup  func(tb testing.TB) *wire.Packet
	packet func(tb testing.TB) *wire.Packet
}

func procCases() []procCase {
	outbound := func(tb testing.TB) *wire.Packet { return udpPacket(tb, rigInside, rigRemote, 5555, 53) }
	inbound := func(tb testing.TB) *wire.Packet { return udpPacket(tb, rigRemote, rigExt, 53, 10000) }
	mazu := func() core.Middlebox { return NewMazuNAT(rigExt, 10000, 100, wire.Addr4(10, 0, 0, 0), 8) }
	return []procCase{
		{name: "Gen16", mb: func() core.Middlebox { return NewGen(16, 16) }, packet: outbound},
		{name: "Gen256", mb: func() core.Middlebox { return NewGen(256, 16) }, packet: outbound},
		{name: "Monitor", mb: func() core.Middlebox { return NewMonitor(1, 2) }, packet: outbound},
		{name: "SimpleNAT", mb: func() core.Middlebox { return NewSimpleNAT(rigExt, 10000, 100) }, packet: outbound},
		{name: "MazuNATOut", mb: mazu, packet: outbound},
		{name: "MazuNATIn", mb: mazu, setup: outbound, packet: inbound},
		{name: "LoadBalancer", mb: func() core.Middlebox {
			lb, _ := NewLoadBalancer(vip, backends)
			return lb
		}, packet: func(tb testing.TB) *wire.Packet { return udpPacket(tb, rigInside, vip, 5555, 80) }},
		{name: "Firewall", mb: func() core.Middlebox {
			return NewFirewall([]Rule{{Proto: wire.ProtoUDP, DstPort: 22, Allow: false}}, true)
		}, packet: outbound},
	}
}

// warmRig builds c's rig and runs its flow until the flow is established
// and the batch's buffers have grown to their steady size.
func warmRig(tb testing.TB, c procCase) *procRig {
	r := newProcRig(c.mb(), state.New(state.DefaultPartitions))
	if c.setup != nil {
		r.use(c.setup(tb))
		if v := r.run(tb); v != core.Forward {
			tb.Fatalf("%s: setup packet got verdict %v", c.name, v)
		}
	}
	r.use(c.packet(tb))
	for i := 0; i < 200; i++ {
		if v := r.run(tb); v != core.Forward {
			tb.Fatalf("%s: verdict %v", c.name, v)
		}
	}
	return r
}

// TestProcessAllocatesNothing gates every middlebox's per-packet cost on an
// established flow: a packet transaction through a warm batch allocates
// nothing. (The value slab's chunk refills amortize below one allocation
// per packet, which AllocsPerRun's integer average rounds to zero; a flow
// setup, such as a reused and rewritten frame would cause, allocates.)
func TestProcessAllocatesNothing(t *testing.T) {
	for _, c := range procCases() {
		t.Run(c.name, func(t *testing.T) {
			r := warmRig(t, c)
			if n := testing.AllocsPerRun(1000, func() { r.run(t) }); n != 0 {
				t.Fatalf("%s allocates %v times per packet, want 0", c.name, n)
			}
		})
	}
}

// BenchmarkProcess is the mbox.process ledger row measured alone: one op is
// one packet transaction on an established flow through a warm batch.
func BenchmarkProcess(b *testing.B) {
	for _, c := range procCases() {
		b.Run(c.name, func(b *testing.B) {
			r := warmRig(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.run(b)
			}
		})
	}
}

// TestProcessConcurrentBatches runs two batches at once through one
// MazuNAT and two through one Gen, each middlebox on its own shared store —
// the shape of a node's two workers. A worker owns one batch, as on a
// replica: batches hold partition locks between transactions, so one
// goroutine holding batches on two stores could deadlock with another.
// Every flow must keep one distinct binding, the flow counter must count
// each setup once, and Gen's keys must hold whole values.
func TestProcessConcurrentBatches(t *testing.T) {
	const workers, flows, rounds = 2, 64, 4
	natStore, genStore := state.New(state.DefaultPartitions), state.New(state.DefaultPartitions)
	nat, gen := NewMazuNAT(rigExt, 10000, 1000, wire.Addr4(10, 0, 0, 0), 8), NewGen(16, 16)
	packets := make([][]*wire.Packet, workers)
	for w := range packets {
		for f := 0; f < flows; f++ {
			packets[w] = append(packets[w], udpPacket(t, wire.Addr4(10, 0, byte(w), byte(f)), rigRemote, 4000, 53))
		}
	}
	// drive runs every round of worker w's flows through r, calling check
	// after each packet.
	drive := func(r *procRig, w int, check func(round, f int) error) error {
		for round := 0; round < rounds; round++ {
			for f, p := range packets[w] {
				r.use(p)
				if v := r.run(t); v != core.Forward {
					return fmt.Errorf("%s worker %d flow %d: verdict %v", r.mb.Name(), w, f, v)
				}
				if err := check(round, f); err != nil {
					return err
				}
			}
			r.batch.Flush()
		}
		return nil
	}
	ports := make([][]uint16, workers)
	errs := make(chan error, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			r := newProcRig(nat, natStore)
			errs <- drive(r, w, func(round, f int) error {
				got := r.pkt.UDP.SrcPort
				if round == 0 {
					ports[w] = append(ports[w], got)
				} else if got != ports[w][f] {
					return fmt.Errorf("worker %d flow %d: binding moved %d → %d", w, f, ports[w][f], got)
				}
				return nil
			})
		}(w)
		go func(w int) {
			defer wg.Done()
			errs <- drive(newProcRig(gen, genStore), w, func(int, int) error { return nil })
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint16]bool{}
	for _, ps := range ports {
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("port %d bound to two flows", p)
			}
			seen[p] = true
		}
	}
	if v, _ := natStore.Get("mnat:flows"); len(v) != 8 || binary.BigEndian.Uint64(v) != workers*flows {
		t.Fatalf("mnat:flows = %x, want %d", v, workers*flows)
	}
	for _, k := range gen.keyNames {
		if v, ok := genStore.Get(k); ok && len(v) != 16 {
			t.Fatalf("%s holds %d bytes, want 16", k, len(v))
		}
	}
}
