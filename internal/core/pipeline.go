package core

import (
	"context"
	"time"

	"github.com/ftsfc/ftc/internal/wire"
)

// processPacket runs the full §5.1 pipeline for one packet at this replica.
// It reports whether the egress buffer took ownership of pkt.Buf. Sends,
// state commits, and buffer appends are deferred to w's flush.
func (r *Replica) processPacket(pkt *wire.Packet, msg *Message, w *worker) bool {
	// 1. Commit vectors: merge for pruning and buffer release. A commit
	// rides the full ring — through the buffer→forwarder transfer when the
	// group wraps — so every member and the buffer see it; it retires when
	// it arrives back at the tail that mints it.
	r.mergeCommits(msg.Commits)
	kept := msg.Commits[:0]
	for _, c := range msg.Commits {
		if r.ring.IsTail(r.idx, int(c.MB)) {
			continue
		}
		kept = append(kept, c)
	}
	msg.Commits = kept

	// 2. Piggyback logs. A frame whose log is Blocked or Partial, or whose
	// flow partition holds a parked frame, parks in the pending set with
	// what it has left to do; the goroutine goes on (pending.go). A
	// propagating carrier belongs to no flow: only its own logs hold it.
	wait := r.applyLogs(msg, w, nil, false)
	if (len(wait) > 0 || r.stats.Pending.Load() > 0 && !msg.Propagating()) && r.park(pkt, msg, wait, w) {
		return false
	}
	return r.onward(pkt, msg, w)
}

// applyLogs replicates msg's follower logs in dependency order; tails strip
// the log they have just replicated for the f+1'th time. The
// retransmission-buffer appends sink into w for a one-pass flush at the
// boundary. On arrival (retry nil) every log is tried; a drain retrying a
// parked frame passes the indexes still waiting, and the logs settled
// before stay as they are. A Blocked log, or a Partial run (installed on
// some partitions, behind on others), stays on the message and its index
// is returned (w's scratch), so the frame waits until the whole log is in
// — unless force, when it is counted in ApplyTimeouts and passed on.
func (r *Replica) applyLogs(msg *Message, w *worker, retry []int, force bool) []int {
	blocked := w.blocked[:0]
	kept := msg.Logs[:0]
	for i, l := range msg.Logs {
		if l.Elided() {
			// Vector-only marker: the substance travels on another packet's
			// coalesced run. Nothing to apply and never stripped — the
			// marker rides to the egress buffer, gates the packet's release
			// against the commit vector, and dies there.
			kept = append(kept, l)
			continue
		}
		if r.head != nil && l.MB == r.head.MB() {
			continue // our own log completed the loop (only when wrapped and repair raced)
		}
		f := r.followers[l.MB]
		if f == nil {
			kept = append(kept, l) // passing through (not in this group)
			continue
		}
		if retry != nil {
			if len(retry) == 0 || retry[0] != i {
				kept = append(kept, l) // settled on an earlier pass
				continue
			}
			retry = retry[1:]
		}
		out := f.apply(l, &w.pendL)
		for len(w.pendF) < len(w.pendL) {
			w.pendF = append(w.pendF, f)
		}
		w.wake = w.wake || out.took()
		if out == Blocked || out == Partial {
			if force {
				r.stats.ApplyTimeouts.Add(1)
			} else {
				blocked = append(blocked, len(kept))
			}
			kept = append(kept, l)
			continue
		}
		if r.ring.IsTail(r.idx, int(l.MB)) {
			continue // f+1 times replicated; strip (§5.1)
		}
		kept = append(kept, l)
	}
	msg.Logs = kept
	w.blocked = blocked
	return blocked
}

// onward runs the rest of the pipeline on a frame whose logs are settled:
// the packet transaction, tail duty, and the forward or buffer stage.
func (r *Replica) onward(pkt *wire.Packet, msg *Message, w *worker) bool {
	// 3. The packet transaction (data packets only; propagating packets are
	// never handed to middleboxes, §5.1). It runs through the worker's state
	// batch, so consecutive packets touching the same partitions pay one
	// lock acquisition; its log feeds the worker's coalescer.
	if r.head != nil && !msg.Propagating() {
		// Data packets only ever arrive through handleFrame or a resume, so
		// pkt is w.pkt, the packet w.process runs the middlebox on. The log is backed by
		// the batch's scratch until the next transaction: everything below
		// encodes or copies it before returning.
		log, err := r.head.TransactionBatch(w.batch, w.process)
		verdict := w.verdict
		if err != nil {
			r.stats.MBErrors.Add(1)
			verdict = Drop
			log = Log{MB: r.head.MB(), Flags: LogNoop}
		}
		r.attachLog(msg, log, w, w.last || verdict == Drop)
		if verdict == Drop {
			r.stats.Filtered.Add(1)
			// The filtered packet's piggyback message continues on a
			// propagating packet generated by this head (§5.1).
			msg.Flags |= FlagPropagating
			r.emitPropagating(msg, w)
			return false
		}
	}

	// 4. Tail duty: announce the latest f+1-replicated prefix. The tail
	// disseminates "periodically" (§4.1): ticks accumulate per packet, but
	// the MAX snapshot rides the burst's last packet once a commitEvery'th
	// tick fired (commitRefresh bounds staleness in time), and every
	// propagating packet, so idle chains still make release progress without
	// paying a full MAX snapshot per packet. With Burst=1 every packet is a
	// boundary, which is exactly the per-packet schedule.
	if r.tail >= 0 {
		disseminate := msg.Propagating()
		if !disseminate {
			if r.tailTick.Add(1)%commitEvery == 1 {
				w.dissemDue = true
			}
			if w.last && (w.dissemDue || r.commitStale(w.now)) {
				disseminate = true
				w.dissemDue = false
			}
		}
		if disseminate {
			// WithDefaults keeps F ≥ 1, so a tail always follows its group.
			j := uint16(r.tail)
			msg.Commits = append(msg.Commits, Commit{MB: j, Vec: w.sparse(r.followers[j].appendMax)})
			r.mergeCommits(msg.Commits[len(msg.Commits)-1:])
		}
	}

	// 5. Forward along the chain, or run the buffer at the chain's end.
	if r.buf != nil {
		return r.bufferStage(pkt, msg, w)
	}
	r.forward(pkt, msg, w)
	return false
}

func (r *Replica) forward(pkt *wire.Packet, msg *Message, w *worker) {
	// Encode the trailer by appending straight onto the frame: no
	// intermediate body buffer, and on pooled frames with headroom no
	// allocation at all.
	pre := len(pkt.Buf)
	if err := pkt.AppendTrailer(msg); err != nil {
		r.stats.ParseErrors.Add(1)
		return
	}
	r.stats.WireBytesOut.Add(uint64(len(pkt.Buf)))
	r.stats.PiggybackBytesOut.Add(uint64(len(pkt.Buf) - pre))
	if !msg.Propagating() {
		r.stats.AppBytesOut.Add(uint64(pre))
	} else {
		// Carrier frames are pure replication overhead, template included.
		r.stats.PiggybackBytesOut.Add(uint64(pre))
	}
	// The frame joins the worker's outgoing burst; the route resolves once
	// for all of them at the flush.
	w.out = append(w.out, pkt.Buf)
}

// attachLog routes a transaction's log onto the wire: write logs feed the
// worker's coalescer and ride the packet as elided vector-only markers; the
// coalesced run closes onto the burst's last data packet, or onto the
// current packet when another worker interleaves a transaction on a shared
// partition.
// closing forces the run out now — the burst's final frame, or a Drop
// verdict about to divert the message onto a propagating carrier.
func (r *Replica) attachLog(msg *Message, log Log, w *worker, closing bool) {
	if log.Noop() || len(log.Vec) == 0 {
		// Noops install nothing; their vector only gates this packet's
		// release. They ride elided — a full noop log would carry observed
		// sequence numbers of coalesced writes not yet shipped, blocking
		// followers — and a vec-less noop (error fallback) gates nothing, so
		// it leaves the wire entirely.
		if len(log.Vec) > 0 {
			msg.Logs = append(msg.Logs, Log{MB: log.MB, Flags: log.Flags | LogElided, Vec: log.Vec})
		}
		if closing {
			r.closeRun(msg, w)
		}
		return
	}
	if !w.co.absorb(&log) {
		r.closeRun(msg, w) // interleaved writer: the run can't extend; close it here
		w.co.absorb(&log)
	}
	if closing {
		r.closeRun(msg, w) // the run — including this transaction — rides this packet
		return
	}
	msg.Logs = append(msg.Logs, Log{MB: log.MB, Flags: LogElided, Vec: log.Vec})
}

// closeRun finalizes the worker's open coalesced run onto msg.
func (r *Replica) closeRun(msg *Message, w *worker) {
	if !w.co.active {
		return
	}
	run := w.co.finalize()
	w.headLogs = append(w.headLogs, run)
	msg.Logs = append(msg.Logs, run)
}

// flushRun closes a run still open at the burst flush (the last frame never
// reached the transaction stage) onto its own propagating carrier. Each of
// the run's transactions already left an elided marker on its data packet,
// so release gating is covered; only the substance needs a ride.
func (r *Replica) flushRun(w *worker) {
	if !w.co.active {
		return
	}
	run := w.co.finalize()
	w.headLogs = append(w.headLogs, run)
	r.emitPropagating(&Message{Gen: r.gen.Load(), Logs: []Log{run}}, w)
}

// repair fetches missing logs for middlebox mb from this replica's group
// predecessor (§4.1: "a replica requests its predecessor to retransmit").
func (r *Replica) repair(mb uint16, f *Follower) {
	pred := r.ring.PredecessorInGroup(r.idx, int(mb))
	if pred < 0 {
		return
	}
	r.stats.Repairs.Add(1)
	req := encodeRepairReq(mb, f.Max())
	ctx, cancel := context.WithTimeout(r.life, time.Second)
	defer cancel()
	resp, err := r.fabric.Call(ctx, r.sim.ID(), r.ringID(pred), rpcRepair, req)
	if err != nil {
		return
	}
	m, err := DecodeMessage(resp)
	if err != nil {
		return
	}
	for _, l := range m.Logs {
		switch f.Apply(l) {
		case Applied, Partial:
			r.stats.RepairedLogs.Add(1)
		case Duplicate:
			r.stats.Duplicates.Add(1)
		}
	}
}

// emitPropagating sends msg through the rest of the chain on a synthetic
// packet (idle-timer propagation, filtered packets, §5.1).
func (r *Replica) emitPropagating(msg *Message, w *worker) {
	msg.Flags |= FlagPropagating
	pkt := r.carrierFrom(msg.LenEstimate())
	r.stats.Propagating.Add(1)
	if r.buf != nil {
		// Last node: the propagating content goes straight to the buffer
		// stage (nothing further down the chain).
		r.bufferStage(pkt, msg, w)
	} else {
		r.forward(pkt, msg, w)
	}
	// Propagating packets are never held, so the carrier is ours to recycle
	// once the flush has copied it into the fabric.
	w.rel = append(w.rel, pkt.Buf)
}
