package core

import (
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/slab"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// run is the worker loop: claim a non-empty flow partition (home first,
// then the deepest backlogged sibling partition), drain one burst, process
// it AND flush its deferred effects, and only then release the claim.
// Holding the claim through the flush is what preserves per-flow FIFO order
// across claim migrations: a flow hashes to exactly one partition, and a
// partition never has frames in flight at two workers at once (DESIGN.md
// §9). A single worker homes every queue and never steals.
func (r *Replica) run(idx int) {
	w := r.newQueueWorker()
	ctl := netsim.NewBurstController(r.cfg.Burst)
	sched := r.sim.NewQueueSched(idx, r.cfg.Workers)
	for {
		q, stolen := sched.Acquire()
		if q < 0 {
			// Crash or shutdown mid-stream: release any state locks the
			// batch retains so post-mortem store reads (recovery, digests)
			// never block on a dead worker.
			if w.batch != nil {
				w.batch.Flush()
			}
			return
		}
		if stolen {
			r.sched.Steals.Inc()
		}
		r.brackets.Add(1)
		n := r.sim.DrainClaimed(q, w.in[:ctl.Size()])
		if n > 0 {
			r.handleBurst(w, n)
		}
		r.brackets.Add(-1)
		depth := r.sim.QueueLen(q)
		sched.Release(q)
		ctl.Observe(n, depth)
		r.sched.Burst.Set(int64(ctl.Size()))
		// n == 0 is not a crash signal: a claim can be won on a queue a
		// sibling drained empty moments earlier, and a crash mid-drain is
		// caught by the next Acquire returning q == -1 — the only exit
		// path, so a live replica never sheds workers.
	}
}

// worker is one goroutine's burst-processing state, none of it shared: the
// scratch that makes steady-state frame handling allocation-free (packet
// view, piggyback decode arenas, ingress message header, all reused across
// frames) plus the deferred-work queues that let a burst pay once for what
// a per-packet pipeline pays per frame — next-hop route resolution and
// sends, state-lock begin/commit, retransmission-buffer appends, and commit
// dissemination. The queue workers (run), the ingest workers (ingest, kick)
// and the timers (propagateLoop, maintain, expiry) each own one: everything
// the pipeline emits leaves the node through a worker's
// beginBurst/flushBurst bracket.
type worker struct {
	pkt     wire.Packet
	dec     MsgScratch
	ingress Message          // reused header for raw-ingress packets
	in      []netsim.Inbound // burst landing zone (queue and ingest workers), len == netsim.MaxBurst(cfg.Burst)
	// arena backs an ingest worker's frames: each burst is copied into it
	// once and carved into w.in, and the bytes are dead at the flush. Nil on
	// every other worker, whose inbound frames are pooled and recycle (rel).
	arena []byte

	out []([]byte) // trailered frames awaiting the flush to the next hop
	egr []([]byte) // finalized frames awaiting the flush to egress
	rel []([]byte) // frames to recycle once the flush has copied them out
	// xferOut holds the egress buffer's transfer frames (encoded on pooled
	// buffers, which rel recycles) awaiting the flush to ring node 0;
	// transfer is the header they are encoded from, reused for every one.
	xferOut  []([]byte)
	transfer Message

	// batch runs the head's packet transactions and flushes per burst. Only
	// queue workers on a node hosting a middlebox have one; the timers never
	// transact inside a bracket. process is the transaction body, built once
	// over pkt and verdict so that running it costs no closure per packet.
	batch   *HeadBatch
	process func(tx state.Txn) error
	verdict Verdict

	headLogs []Log // head retransmission-buffer appends, one addAll per burst
	pendF    []*Follower
	pendL    []Log // follower appends; pendF[i] buffers pendL[i]

	co   coalescer // open coalesced run; never spans a flush
	xfer []Log     // buffer-transfer scratch: logs minus elided markers

	// Held packets keep a vec-only copy of their logs until a commit
	// releases them; the egress buffer carves those from here.
	heldLogs slab.Slab[Log]
	heldVecs slab.Slab[VecEntry]

	// commitVecs backs the commit vectors this worker mints: a commit is
	// merged and encoded (or cloned by the forwarder) inside the burst that
	// minted it, so the storage rewinds at every beginBurst.
	commitVecs SparseVec

	now       time.Time // the burst's one clock reading (beginBurst)
	last      bool      // processing the burst's final frame (flush boundary)
	dissemDue bool      // a commitEvery tick fired; disseminate at the boundary

	// The pending set's and the egress buffer's view of this worker
	// (pending.go): blocked is applyLogs' scratch; wake says an apply
	// advanced a MAX, so the flush drains; claims and heldClaims mask the
	// partitions it resumed frames from or released held packets from,
	// unclaimed once the flush has sent them on; flushes counts finished
	// flushes; relook is another drain or release asking it to look again
	// after its flush.
	blocked    []int
	wake       bool
	claims     uint64
	heldClaims uint64
	resumed    int64
	flushes    atomic.Uint64
	relook     atomic.Bool
	relooking  bool
}

// newQueueWorker builds the state of one run loop or one ingest worker: the
// burst landing zone and, on a node hosting a middlebox, the transaction
// batch and body.
func (r *Replica) newQueueWorker() *worker {
	w := &worker{in: make([]netsim.Inbound, netsim.MaxBurst(r.cfg.Burst))}
	if r.head != nil {
		w.batch = r.head.NewBatch()
		w.process = func(tx state.Txn) error {
			v, err := r.mb.Process(&w.pkt, tx)
			w.verdict = v
			return err
		}
	}
	return w
}

// handleBurst runs one received burst through the pipeline and flushes the
// deferred work at its boundary. A burst of 1 (partial or Burst=1 config)
// flushes immediately after its only frame, so bursting never adds a
// latency floor.
func (r *Replica) handleBurst(w *worker, n int) {
	r.sched.Bursts.Inc()
	r.beginBurst(w)
	for i := 0; i < n; i++ {
		w.last = i == n-1
		if !r.handleFrame(w.in[i], w) && w.arena == nil {
			w.rel = append(w.rel, w.in[i].Frame)
		}
	}
	r.flushBurst(w)
	if r.expiryOn {
		// Flow aging rides the burst cadence: no extra goroutine touches the
		// data path, and expiry deletions enter the same log → commit →
		// release machinery as packet writes. Runs after the flush: the
		// expiry transaction takes the fetch gate itself, which deadlocks
		// inside the bracket if a fetch writer is queued behind this burst.
		r.maybeExpire()
	}
}

// ingest is the pipeline the replica attaches to its node
// (netsim.Node.AttachIngest): a burst injected from outside the fabric — a
// socket bridge's receive goroutine — runs to completion on the injecting
// goroutine, with no queue, wake-up or per-frame pool operation in between.
// The frames are borrowed, so each burst is copied once into the worker's
// arena, carved cap-limited with the headroom a fabric delivery has (option
// insert and trailer append stay in place, and can never run into the next
// frame), and handed to handleBurst in chunks of len(w.in). Arena frames are
// never recycled; the one stage that keeps a frame past the flush, the
// egress buffer's hold, copies it out (bufferStage). Frames of one flow come
// from one predecessor over one socket, hence one goroutine, so per-flow
// order needs no queue claim; concurrent ingests are the multi-worker case
// the pipeline's locks already cover. It reports false — the fabric drops
// and counts the burst — before Start and once the node has crashed.
func (r *Replica) ingest(frames [][]byte) bool {
	w := r.enter()
	if w == nil {
		return false
	}
	r.sched.Burst.Set(int64(len(frames)))
	for len(frames) > 0 {
		n := min(len(frames), len(w.in))
		need := 0
		for _, fr := range frames[:n] {
			need += len(fr) + netsim.FrameHeadroom
		}
		if cap(w.arena) < need {
			w.arena = make([]byte, need)
		}
		off := 0
		for i, fr := range frames[:n] {
			end := off + len(fr)
			w.in[i].Frame = w.arena[off : end : end+netsim.FrameHeadroom]
			copy(w.in[i].Frame, fr)
			off = end + netsim.FrameHeadroom
		}
		r.handleBurst(w, n)
		frames = frames[n:]
	}
	r.leave(w)
	return true
}

// enter admits a goroutine from outside the replica's own loops (an
// ingest, a kick) and lends it a queue worker; nil before Start and once
// the node has crashed. leave returns the worker.
func (r *Replica) enter() *worker {
	r.ingMu.Lock()
	defer r.ingMu.Unlock()
	if !r.started || r.sim.Crashed() {
		return nil
	}
	r.wg.Add(1)
	if k := len(r.ingFree); k > 0 {
		w := r.ingFree[k-1]
		r.ingFree = r.ingFree[:k-1]
		return w
	}
	return r.newQueueWorker() // at most one per concurrent goroutine, ever
}

func (r *Replica) leave(w *worker) {
	r.ingMu.Lock()
	r.ingFree = append(r.ingFree, w)
	r.ingMu.Unlock()
	r.wg.Done()
}

// beginBurst opens the bracket that flushBurst closes; between the two, the
// pipeline stages queue their sends and buffer appends on w.
func (r *Replica) beginBurst(w *worker) {
	r.brackets.Add(1)
	w.now = time.Now()
	w.dec.BeginBurst()
	w.commitVecs = w.commitVecs[:0]
	if w.batch != nil {
		// Fetch gate, held burst-wide: the batch keeps partition locks
		// between transactions, so a per-transaction read lock could deadlock
		// against a pending fetch writer. flushBurst releases it once the
		// burst's logs are in the retransmission buffer and the batch has
		// flushed — the earliest point a fetch sees a consistent cut. No
		// frame waits inside a bracket (pending.go), so the hold is short.
		r.head.fetchMu.RLock()
	}
}

// flushBurst drains the worker's deferred queues: one burst send per
// destination (held packets a commit released ride the egress one, behind
// the bracket's own), one lock acquisition per retransmission buffer, one
// state batch flush. Frames recycle only after the burst sends have copied
// them into the fabric.
func (r *Replica) flushBurst(w *worker) {
	if w.wake {
		r.drain(w) // resumed frames join the burst's deferred work
		w.wake = false
	}
	// Safety net for the coalescer: a run is normally closed onto the
	// burst's last data packet, but if that frame never reached the
	// transaction stage (parse error, stale gen, buffer transfer) the run is
	// still open here and rides its own propagating carrier.
	r.flushRun(w)
	if len(w.xferOut) > 0 {
		// The buffer's transfers, one burst on the link back to the chain's
		// head; tail-drop like any ingress, repair owns the loss.
		if r.sim.SendBurst(r.ringID(0), w.xferOut) == nil {
			sent := 0
			for _, fr := range w.xferOut {
				sent += len(fr)
			}
			// Transfer frames are pure replication overhead.
			r.stats.WireBytesOut.Add(uint64(sent))
			r.stats.PiggybackBytesOut.Add(uint64(sent))
		}
		reset(&w.xferOut)
	}
	if len(w.out) > 0 {
		// Blocking send: pipeline stages exert flow control on each other,
		// like the paper's DPDK rings — overload drops happen at the chain
		// ingress, never between replicas (which would cost repair round
		// trips).
		if next := r.nextHop(); next != "" {
			if r.fwd != nil && r.fwd.sentAt.Load() == 0 {
				r.fwd.sentAt.Store(w.now.UnixNano()) // sent or not: what comes back counts
			}
			if err := r.sim.SendBurstBlocking(next, w.out); err == nil {
				r.stats.TxFrames.Add(uint64(len(w.out)))
			}
		}
		reset(&w.out)
	}
	if r.buf != nil {
		r.releaseHeld(w)
	}
	if len(w.egr) > 0 {
		// Counted and discarded when the chain has no egress node.
		if r.egress == "" || r.sim.SendBurstBlocking(r.egress, w.egr) == nil {
			r.stats.Egress.Add(uint64(len(w.egr)))
		}
		reset(&w.egr)
	}
	if w.heldClaims != 0 {
		r.buf.unclaim(&w.heldClaims)
	}
	if len(w.headLogs) > 0 {
		r.head.Buffer().addAll(w.headLogs)
		reset(&w.headLogs)
	}
	for i := 0; i < len(w.pendL); {
		f := w.pendF[i]
		j := i + 1
		for j < len(w.pendL) && w.pendF[j] == f {
			j++
		}
		f.buf.addAll(w.pendL[i:j])
		i = j
	}
	if len(w.pendL) > 0 {
		reset(&w.pendL)
		reset(&w.pendF)
	}
	if w.batch != nil {
		w.batch.Flush()
		r.head.fetchMu.RUnlock() // end of the fetch gate (see beginBurst)
	}
	for _, fr := range w.rel {
		netsim.ReleaseFrame(fr)
	}
	reset(&w.rel)
	if w.claims != 0 {
		r.release(w)
	}
	w.flushes.Add(1)
	r.brackets.Add(-1)
	if !w.relooking && w.relook.Load() {
		r.relook(w)
	}
}

// sparse mints a commit vector in the worker's burst-scoped storage:
// appendVec appends the vector's sparse form, and sparse returns what it
// appended. A reallocating append leaves earlier results on the old array,
// where they stay valid.
func (w *worker) sparse(appendVec func(SparseVec) SparseVec) SparseVec {
	n := len(w.commitVecs)
	w.commitVecs = appendVec(w.commitVecs)
	return w.commitVecs[n:len(w.commitVecs):len(w.commitVecs)]
}

// reset truncates a deferred-work list, zeroing entries so recycled frames
// and retained Vec/Updates arrays are not pinned between bursts.
func reset[T any](s *[]T) {
	clear(*s)
	*s = (*s)[:0]
}

// handleFrame runs one inbound frame through the replica pipeline. It
// reports whether some stage retained ownership of in.Frame (only the
// egress buffer does, when it holds the packet); unretained frames go back
// to the frame pool. Sends and buffer appends are deferred to w's flush.
func (r *Replica) handleFrame(in netsim.Inbound, w *worker) bool {
	r.stats.RxFrames.Add(1)
	pkt := &w.pkt
	if err := wire.ParseInto(pkt, in.Frame); err != nil {
		r.stats.ParseErrors.Add(1)
		return false
	}
	var msg *Message
	if tr := pkt.Trailer(); tr != nil {
		m, err := w.dec.Decode(tr)
		if err != nil {
			r.stats.ParseErrors.Add(1)
			return false
		}
		msg = m
	}
	gen := r.gen.Load()
	if msg == nil {
		// External ingress: only the forwarder admits raw packets.
		if r.fwd == nil {
			r.stats.ParseErrors.Add(1)
			return false
		}
		msg = &w.ingress
		msg.Flags = 0
		msg.FullValues = false
		msg.Gen = gen
		// Straight into the reused ingress arrays, so neither take nor the
		// head-log append below reallocates per packet.
		msg.Logs, msg.Commits = r.fwd.take(w.now, r.cfg.resendAfter(), msg.Logs[:0], msg.Commits[:0])
		if err := pkt.InsertFTCOption(); err != nil {
			r.stats.ParseErrors.Add(1)
			return false
		}
	} else {
		if msg.Gen != gen {
			r.stats.StaleGen.Add(1)
			return false
		}
		if msg.Flags&FlagBufferTransfer != 0 {
			if r.fwd != nil {
				r.fwd.addTransfer(msg)
				r.mergeCommits(msg.Commits)
			}
			return false
		}
	}
	held := r.processPacket(pkt, msg, w)
	// The buffer held pkt.Buf; in.Frame is retained only if they are still
	// the same array (an in-header insert or trailer append can reallocate,
	// leaving in.Frame free to recycle while the buffer owns the copy).
	return held && len(in.Frame) > 0 && len(pkt.Buf) > 0 && &pkt.Buf[0] == &in.Frame[0]
}
