package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc"
	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/trans"
	"github.com/ftsfc/ftc/internal/wire"
)

// replayFrames is how many of the workload's own frames the layer replay
// drives through the exported entry points, at the pinned run length.
const replayFrames = 50_000

// wireV2 is the piggyback dialect replicas speak by default.
const wireV2 = 2

// stage is one middlebox's share of the replayed pipeline: its head, one
// follower, and a plain store running the same middlebox as the NF would.
type stage struct {
	mb       ftc.Middlebox
	head     *core.Head
	follower *core.Follower
	plainMB  ftc.Middlebox
	plain    *state.Store
}

// replay drives the workload's frames, burst by burst and on one goroutine,
// through the layers in pipeline order, one span per layer per burst. It
// measures each layer from outside; what has no exported entry point
// (forwarder, egress buffer, commit dissemination) is not in it.
func (r *runner) replay() error {
	sp := r.tr.begin(spanReplay)
	defer func() { r.tr.end(sp, 0) }()
	r.tr.nextPhase()
	tr := r.tr

	// What an empty span costs: inside its own interval, and as seen by
	// the span around it. Both are taken off the layer times below.
	const calib = 4096
	outer := tr.begin(spanCalibrate)
	for i := 0; i < calib; i++ {
		tr.end(tr.begin(spanCalibrate), 0)
	}
	tr.end(outer, 0)
	var inner int64
	for _, s := range tr.spans[outer+1 : outer+1+calib] {
		inner += s.end - s.start
	}
	spanInner := float64(inner) / calib
	spanOuter := float64(tr.spans[outer].end-tr.spans[outer].start) / calib

	// The frames come from a generator of the workload's own spec, caught
	// on a bare fabric node.
	fabric := ftc.NewFabric(ftc.FabricConfig{})
	defer fabric.Stop()
	catch := fabric.AddNode("catch", netsim.NodeConfig{QueueCap: 2 * chunk})
	a := fabric.AddNode("a", netsim.NodeConfig{})
	b := fabric.AddNode("b", netsim.NodeConfig{QueueCap: 2 * chunk, Selector: wire.RSSSelector})
	gen, err := ftc.NewGenerator(fabric, "gen", "catch", r.w.spec(r.seed))
	if err != nil {
		return err
	}
	hop, err := newBridgeHop()
	if err != nil {
		return err
	}
	defer hop.close()

	var stages []stage
	plainMBs := r.w.mbs()
	for j, mb := range r.w.mbs() {
		stages = append(stages, stage{
			mb:       mb,
			head:     core.NewHead(uint16(j), state.New(64)),
			follower: core.NewFollower(uint16(j), state.New(64)),
			plainMB:  plainMBs[j],
			plain:    state.New(64),
		})
	}

	var (
		in      = make([]netsim.Inbound, chunk)
		frames  = make([][]byte, chunk)
		copies  = make([][]byte, chunk)
		pkts    = make([]wire.Packet, chunk)
		twins   = make([]wire.Packet, chunk)
		logs    = make([]core.Log, chunk)
		decoded = make([]core.Log, chunk)
		enc     = make([][]byte, chunk)
		scratch core.MsgScratch
		dgram   []byte
		fail    error
		saved   [][]byte // the last burst, as it left the last stage
	)
	// One untimed pass installs every flow, as setup does for the workload;
	// the timed frames then take the established-flow path.
	install := (r.w.flows + chunk - 1) / chunk * chunk
	total := install + int(r.scaled(replayFrames))
	tr.setOn(false)
	for done := 0; done < total && fail == nil; done += chunk {
		if done == install {
			tr.setOn(true)
		}
		n, err := gen.SendChunk(done, chunk)
		if err != nil {
			return err
		}
		if got := catch.RecvBurst(0, in[:n]); got != n {
			return fmt.Errorf("replay: caught %d of %d frames", got, n)
		}
		for i := 0; i < n; i++ {
			frames[i] = in[i].Frame
		}

		for j := range stages {
			st := &stages[j]
			s := tr.begin(spanParse)
			for i := 0; i < n; i++ {
				if err := wire.ParseInto(&pkts[i], frames[i]); err != nil {
					fail = err
				}
			}
			tr.end(s, n)

			s = tr.begin(spanRSS)
			for i := 0; i < n; i++ {
				// 16 queues: what two workers with the default steal
				// granularity expose.
				_ = wire.RSSSelector(frames[i], 16)
			}
			tr.end(s, n)

			// The NF floor: the same middlebox in a plain transaction. It
			// runs on copies, because middleboxes rewrite headers.
			for i := 0; i < n; i++ {
				copies[i] = append(copies[i][:0], frames[i]...)
				if err := wire.ParseInto(&twins[i], copies[i]); err != nil {
					fail = err
				}
			}
			s = tr.begin(spanExec)
			for i := 0; i < n; i++ {
				p := &twins[i]
				if _, err := st.plain.Exec(func(tx state.Txn) error {
					_, perr := st.plainMB.Process(p, tx)
					return perr
				}); err != nil {
					fail = err
				}
			}
			tr.end(s, n)

			s = tr.begin(spanHeadTxn)
			for i := 0; i < n; i++ {
				p := &pkts[i]
				logs[i], err = st.head.Transaction(func(tx state.Txn) error {
					c := tr.begin(spanProcess)
					_, perr := st.mb.Process(p, tx)
					tr.end(c, 1)
					return perr
				})
				if err != nil {
					fail = err
				}
			}
			tr.end(s, n)

			s = tr.begin(spanEncode)
			for i := 0; i < n; i++ {
				msg := core.Message{Ver: wireV2, Gen: 1, Logs: logs[i : i+1]}
				enc[i] = msg.Encode(enc[i][:0])
			}
			tr.end(s, n)

			s = tr.begin(spanTrailer)
			for i := 0; i < n; i++ {
				if err := pkts[i].SetTrailer(enc[i]); err != nil {
					fail = err
				}
				frames[i] = pkts[i].Buf
			}
			tr.end(s, n)

			// One fabric hop; the receiver owns pooled copies afterwards.
			s = tr.begin(spanHop)
			if err := a.SendBurst("b", frames[:n]); err != nil {
				fail = err
			}
			got := 0
			for got < n && fail == nil {
				k := b.RecvBurst(0, in[got:n])
				if k == 0 {
					fail = fmt.Errorf("replay: fabric hop lost frames")
				}
				got += k
			}
			tr.end(s, n)
			if fail != nil {
				break
			}
			for i := 0; i < n; i++ {
				if err := wire.ParseInto(&pkts[i], in[i].Frame); err != nil {
					fail = err
				}
			}

			s = tr.begin(spanDecode)
			scratch.BeginBurst()
			for i := 0; i < n; i++ {
				m, err := scratch.Decode(pkts[i].Trailer())
				if err != nil || len(m.Logs) != 1 {
					fail = fmt.Errorf("replay: decode: %v", err)
					break
				}
				decoded[i] = m.Logs[0]
			}
			tr.end(s, n)
			if fail != nil {
				break
			}

			s = tr.begin(spanApply)
			for i := 0; i < n; i++ {
				if st.follower.Apply(decoded[i]) == core.Blocked {
					fail = fmt.Errorf("replay: in-order log blocked at the follower")
				}
			}
			tr.end(s, n)

			// The next stage works on the received frames, trailer removed;
			// the ones sent go back to the pool.
			s = tr.begin(spanPool)
			for i := 0; i < n; i++ {
				netsim.ReleaseFrame(frames[i])
			}
			tr.end(s, n)
			for i := 0; i < n; i++ {
				pkts[i].DropTrailer()
				frames[i] = pkts[i].Buf
			}
			st.head.Buffer().Prune(st.head.Vector())
			st.follower.Prune(st.follower.Max())
		}
		if fail != nil {
			break
		}

		s := tr.begin(spanPack)
		dgram = dgram[:0]
		for i := 0; i < n; i++ {
			if len(dgram)+len(frames[i]) > trans.DefaultMTUBudget {
				_ = trans.SplitFrames(dgram, func([]byte) {})
				dgram = dgram[:0]
			}
			if dgram, err = trans.AppendFrame(dgram, frames[i]); err != nil {
				fail = err
			}
		}
		if err := trans.SplitFrames(dgram, func([]byte) {}); err != nil {
			fail = err
		}
		tr.end(s, n)

		last := done+chunk >= total
		for i := 0; i < n; i++ {
			if last {
				saved = append(saved, append([]byte(nil), frames[i]...))
			}
			netsim.ReleaseFrame(frames[i])
		}
	}
	if fail != nil {
		return fmt.Errorf("replay: %w", fail)
	}

	// The bridge hop runs apart from the stages, so that the process's CPU
	// time across it is the hop's alone: this goroutine's send, the two
	// bridge goroutines, and the kernel. The spans have the wall time.
	bursts := int(r.scaled(replayFrames)) / chunk
	cpu := processCPU()
	for k := 0; k < bursts; k++ {
		lag := int64(hopLag)
		if k == bursts-1 {
			lag = 0 // the last burst waits for everything
		}
		s := tr.begin(spanBridgeHop)
		err := hop.send(saved, lag)
		tr.end(s, len(saved))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	hopNs := float64(processCPU()-cpu) / float64(bursts*len(saved))

	self, cnt := tr.selfTimes()
	per := func(name int) float64 {
		if cnt[name] == 0 {
			return 0
		}
		return float64(self[name]) / float64(cnt[name])
	}
	// Per-call spans: take the span's own cost off the call, and off the
	// span around it.
	process := per(spanProcess) - spanInner
	headTxn := per(spanHeadTxn) - (spanOuter - spanInner)
	exec := per(spanExec) - process // plain transaction minus the middlebox
	layer := map[string]float64{
		"wire.parse_ns":          per(spanParse),
		"wire.rss_ns":            per(spanRSS),
		"wire.trailer_ns":        per(spanTrailer),
		"mbox.process_ns":        process,
		"state.exec_ns":          exec,
		"core.head_txn_ns":       headTxn - exec, // what replication adds to the transaction
		"core.encode_ns":         per(spanEncode),
		"core.decode_ns":         per(spanDecode),
		"core.follower_apply_ns": per(spanApply),
		"netsim.hop_ns":          per(spanHop),
		"netsim.pool_ns":         per(spanPool),
		"trans.pack_ns":          per(spanPack),
		"trans.hop_ns":           hopNs,
		"tgen.send_ns":           per(spanChunk),
	}
	for k, v := range layer {
		if v < 0 {
			v = 0
		}
		layer[k] = v
		r.m[k] = v
	}
	if !r.w.bridged {
		// No bridge on this workload's path: report the replay's own.
		st := hop.stats()
		r.sockBufs = [2]int{st.EffRcvBuf, st.EffSndBuf}
		r.m["trans.syscalls_per_frame"] = float64(st.SendSyscalls+st.RecvSyscalls) / float64(st.FramesOut)
		r.m["trans.frames_per_datagram"] = float64(st.FramesOut) / float64(st.DatagramsOut)
		r.m["trans.datagrams_per_syscall"] = float64(st.DatagramsOut) / float64(st.SendSyscalls)
		r.m["trans.goodput_ratio"] = float64(st.FrameBytesOut) / float64(st.WireBytesOut)
	}

	// The ledger: layer self time times calls per delivered packet on this
	// workload. m ring positions, nmb middleboxes, f followers each.
	nmb := float64(len(stages))
	m := float64(r.w.chainConfig(len(stages)).Ring().M())
	links := m + 1 // generator to ring, ring, ring to sink
	calls := map[string]float64{
		"tgen.send_ns":           1,
		"wire.parse_ns":          m + 1, // every replica, and the sink
		"wire.rss_ns":            m,
		"wire.trailer_ns":        m - 1,
		"mbox.process_ns":        nmb,
		"state.exec_ns":          nmb,
		"core.head_txn_ns":       nmb,
		"core.encode_ns":         m - 1,
		"core.decode_ns":         m - 1,
		"core.follower_apply_ns": nmb, // f = 1
		"netsim.hop_ns":          links,
		"netsim.pool_ns":         links,
	}
	if r.w.bridged {
		// Every link is fabric to proxy, a datagram, and fabric again.
		calls["netsim.hop_ns"], calls["netsim.pool_ns"] = 2*links, 2*links
		calls["trans.pack_ns"], calls["trans.hop_ns"] = links, links
	}
	var sum float64
	for k, c := range calls {
		sum += c * layer[k]
	}
	r.m["ledger.sum_ns"] = sum
	r.m["ledger.residual_ratio"] = 1 - sum/r.m["ftc.cpu_ns_per_pkt"]
	return nil
}

// bridgeHop is two fabrics joined by two bridges on loopback: frames sent
// on one side are counted on the other.
type bridgeHop struct {
	fabrics  [2]*netsim.Fabric
	bridges  [2]*trans.Bridge
	src      *netsim.Node
	counting bool
	got      atomic.Int64
	batch    chan struct{}
	want     atomic.Int64
	done     chan struct{} // closed when the counting goroutine has ended
}

func newBridgeHop() (*bridgeHop, error) {
	// batch carries one token per completed burst; one burst is in flight
	// at a time.
	h := &bridgeHop{batch: make(chan struct{}, 1), done: make(chan struct{})}
	ids := [2]netsim.NodeID{"left", "right"}
	var dst *netsim.Node
	for i := range h.fabrics {
		h.fabrics[i] = ftc.NewFabric(ftc.FabricConfig{})
		n := h.fabrics[i].AddNode(ids[i], netsim.NodeConfig{QueueCap: 4096})
		if i == 0 {
			h.src = n
		} else {
			dst = n
		}
		b, err := trans.NewBridge(h.fabrics[i], ids[i], "", "", nil, trans.Config{SocketBuf: 4 << 20})
		if err != nil {
			h.close()
			return nil, err
		}
		h.bridges[i] = b
	}
	udp, tcp := h.bridges[1].Addrs()
	if err := h.bridges[0].AddPeer(trans.Peer{ID: ids[1], UDPAddr: udp, TCPAddr: tcp}); err != nil {
		h.close()
		return nil, err
	}
	h.counting = true
	go func() {
		defer close(h.done)
		in := make([]netsim.Inbound, chunk)
		for {
			n := dst.RecvBurst(0, in)
			if n == 0 {
				return
			}
			for i := 0; i < n; i++ {
				netsim.ReleaseFrame(in[i].Frame)
			}
			if h.got.Add(int64(n)) >= h.want.Load()-hopLag {
				select {
				case h.batch <- struct{}{}:
				default:
				}
			}
		}
	}()
	return h, nil
}

// hopLag is how many frames a send leaves in flight: the bridges stay busy
// from one burst to the next, as they do under a closed-loop window, instead
// of going to sleep and being woken once per burst.
const hopLag = 7 * chunk

// send pushes one burst across and waits until all but lag frames of what
// was sent so far have arrived.
func (h *bridgeHop) send(frames [][]byte, lag int64) error {
	h.want.Add(int64(len(frames)))
	if err := h.src.SendBurst("right", frames); err != nil {
		return err
	}
	deadline := time.After(opDeadline)
	for h.got.Load() < h.want.Load()-lag {
		select {
		case <-h.batch:
		case <-deadline:
			return fmt.Errorf("bridge hop lost frames: %d of %d arrived", h.got.Load(), h.want.Load())
		}
	}
	return nil
}

func (h *bridgeHop) stats() trans.Stats { return h.bridges[0].Stats() }

func (h *bridgeHop) close() {
	for _, b := range h.bridges {
		if b != nil {
			b.Close()
		}
	}
	for _, f := range h.fabrics {
		if f != nil {
			f.Stop()
		}
	}
	if h.counting {
		<-h.done
	}
}
