package core

import (
	"runtime"
	"testing"

	"github.com/ftsfc/ftc/internal/wire"
)

// TestBufferReleaseAllocs gates the release on its own: a flush that takes
// a burst's held packets off their flow FIFOs, sends them out of the chain
// and recycles their frames allocates nothing. The hold and the commit's
// merge run outside the measurement.
func TestBufferReleaseAllocs(t *testing.T) {
	rig := newRoleRig(t, rigFrame)
	r, w := rig.last, rig.lw
	var seq uint64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var allocs uint64
	const warm, runs = 20, 100
	for i := 0; i < warm+runs; i++ {
		burst := rig.bufferBurst(t, &seq)[:hopBurst-1] // without the commit
		rig.run(t, r, w, rig.n0, burst)
		drain(rig.n0) // buffer → forwarder transfers
		if got := r.HeldPackets(); got != hopBurst-1 {
			t.Fatalf("buffer holds %d packets, want %d", got, hopBurst-1)
		}
		r.mergeCommits([]Commit{{MB: 0, Vec: SparseVec{{Part: 3, Seq: seq}}}})
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		r.beginBurst(w)
		r.flushBurst(w)
		runtime.ReadMemStats(&ms)
		if i >= warm {
			allocs += ms.Mallocs - before
		}
		if got := drain(rig.sink); got != hopBurst-1 || r.HeldPackets() != 0 {
			t.Fatalf("release sent %d of %d held packets", got, hopBurst-1)
		}
	}
	if allocs != 0 {
		t.Fatalf("%d releases allocated %d times, budget is 0", runs, allocs)
	}
}

// TestBufferGenerationFence holds four packets on each of two flows under
// generation 0, commits the first two of one flow and the first of the
// other, and bumps the generation (SetGen): the committed three leave, in
// flow order, the other five are dropped and counted in FencedHeld, and a
// packet of the new generation on the first flow's partition is not stuck
// behind a fenced one.
func TestBufferGenerationFence(t *testing.T) {
	rig := newRoleRig(t, rigFrame)
	r := rig.last
	// Flow g's packet k carries an elided marker for its own write, at
	// sequence k of state partition 1+g.
	frame := func(g, k int, gen uint32, commits []Commit) []byte {
		log := Log{MB: 0, Flags: LogElided, Vec: SparseVec{{Part: uint16(1 + g), Seq: uint64(k)}}}
		return trailered(t, flowFrame(t, g, k, rigFrame), &Message{Gen: gen, Logs: []Log{log}, Commits: commits})
	}
	var burst [][]byte
	for k := 0; k < 4; k++ {
		burst = append(burst, frame(0, k, 0, nil), frame(1, k, 0, nil))
	}
	rig.run(t, r, rig.lw, rig.n0, burst)
	if got := r.HeldPackets(); got != 8 {
		t.Fatalf("buffer holds %d packets, want 8", got)
	}
	// Merged outside a bracket, so only the fence can release them.
	r.mergeCommits([]Commit{{MB: 0, Vec: SparseVec{{Part: 1, Seq: 2}, {Part: 2, Seq: 1}}}})
	r.SetGen(1)

	type out struct{ g, k int }
	egressed := func() []out {
		var got []out
		for {
			in, ok := rig.sink.TryRecv(0)
			if !ok {
				return got
			}
			p, err := wire.Parse(in.Frame)
			if err != nil {
				t.Fatalf("egress frame unparseable: %v", err)
			}
			g, k := flowOf(p.Payload())
			got = append(got, out{g, k})
		}
	}
	var flow0, flow1 []int
	for _, o := range egressed() {
		if o.g == 0 {
			flow0 = append(flow0, o.k)
		} else {
			flow1 = append(flow1, o.k)
		}
	}
	if len(flow0) != 2 || flow0[0] != 0 || flow0[1] != 1 || len(flow1) != 1 || flow1[0] != 0 {
		t.Fatalf("the fence released flow 0 %v and flow 1 %v, want [0 1] and [0]", flow0, flow1)
	}
	if got := r.Stats().FencedHeld.Load(); got != 5 || r.HeldPackets() != 0 {
		t.Fatalf("the fence dropped %d packets and left %d held, want 5 and 0", got, r.HeldPackets())
	}

	// Flow 0's next packet, under the new generation, its write committed
	// by the commit it carries.
	rig.run(t, r, rig.lw, rig.n0, [][]byte{frame(0, 4, 1, []Commit{{MB: 0, Vec: SparseVec{{Part: 1, Seq: 5}}}})})
	if got := egressed(); len(got) != 1 || got[0] != (out{0, 4}) || r.HeldPackets() != 0 {
		t.Fatalf("new-generation packet: egressed %v with %d still held, want flow 0's packet 4", got, r.HeldPackets())
	}
}

// TestSetGenLeavesPendingSet parks eight frames in the buffer node's
// pending set and bumps the generation: the fence releases held packets
// only, so the frames stay parked for a bracket of the replica's own to
// drain, here for Stop to drop. A second bump races Stop, for -race: a
// fence that resumed parked frames on its own goroutine, which Stop does
// not wait for, could recycle a frame Stop also recycles.
func TestSetGenLeavesPendingSet(t *testing.T) {
	rig := newBridgedRig(t, Config{}, newGenMB(16))
	r := rig.r[1]
	openIngest(r)
	logs := headLogs(t, rig.r[0], 2)
	var frames [][]byte
	for g := 0; g < 8; g++ {
		frames = append(frames, ftcFrame(t, g, 0, &Message{Logs: logs[1:]})) // waits for sequence 0
	}
	rig.inject(t, 1, frames)
	if got := r.Stats().Pending.Load(); got != 8 {
		t.Fatalf("%d frames parked, want 8", got)
	}
	r.SetGen(1)
	if s := r.Stats(); s.Pending.Load() != 8 || s.StaleGen.Load() != 0 {
		t.Fatalf("after SetGen %d frames are parked and %d were dropped as stale, want 8 and 0",
			s.Pending.Load(), s.StaleGen.Load())
	}
	done := make(chan struct{})
	go func() {
		r.SetGen(2)
		close(done)
	}()
	r.Stop()
	<-done
	if got := r.Stats().Pending.Load(); got != 0 {
		t.Fatalf("%d frames parked after Stop, want 0", got)
	}
}
