package core

import (
	"sync/atomic"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// egressBuffer is the element at the chain's egress (§5): it withholds each
// packet until the state updates of middleboxes whose replication groups
// wrap past the chain's end (their tails sit at the beginning of the chain)
// are confirmed replicated f+1 times by commit vectors carried on later
// packets, and it transfers piggyback messages back to the forwarder. A
// held packet waits in its flow partition's FIFO, so each flow leaves in
// the order it arrived (the pending set's partitions and claims, pending.go).
type egressBuffer struct {
	flowFIFOs[heldPacket]
	tick    atomic.Uint32 // throttles commit-view transfers
	wrapped []uint16      // middleboxes whose groups wrap past the chain's end
}

type heldPacket struct {
	frame []byte // the finalized packet, ready for release (buffer-owned)
	// logs are this packet's logs still awaiting commit confirmation.
	// Vec-only clones: the release rule needs MB, Flags and Vec, so the
	// updates (and the decode scratch backing them) are not retained.
	logs []Log
	// gen is the chain generation the packet was admitted under. A new
	// lineage resumes log sequencing from a fetched (possibly lagging)
	// vector, so its commits can cover an older packet's sequence numbers
	// without covering its state: a fenced packet is dropped, never released.
	gen uint32
	// origin is the worker whose bracket held the packet, at flush count
	// epoch: that bracket may still have the flow's earlier packets unsent.
	origin *worker
	epoch  uint64
}

// bufferStage runs the chain-egress pipeline on the last ring node: it
// transfers the packet's remaining piggyback message to the forwarder,
// then holds or releases the packet per the §5.1 release rule. The return
// value reports whether the packet was held: the buffer then owns pkt.Buf
// (a pooled copy of it on an ingest worker, whose frames die at the flush),
// and the release recycles it once it egresses. Egress sends and the
// release are deferred to w's flush.
func (r *Replica) bufferStage(pkt *wire.Packet, msg *Message, w *worker) bool {
	// Transfer wrapped logs and in-flight commit vectors to the forwarder
	// so they continue around the ring (the paper ships these on a
	// dedicated link between the last and first servers). The buffer also
	// attaches its own merged commit view for the wrapped middleboxes:
	// their commits were retired at their heads mid-chain, and without
	// them the forwarder could never prune its pending logs.
	commits := msg.Commits
	includeView := r.buf.tick.Add(1)%commitEvery == 1 || msg.Propagating()
	if !includeView && w.last && r.commitStale(w.now) {
		includeView = true
	}
	if includeView {
		for _, j := range r.buf.wrapped {
			if sv := w.sparse(func(dst SparseVec) SparseVec { return r.appendCommit(dst, j) }); len(sv) > 0 {
				commits = append(commits, Commit{MB: j, Vec: sv})
			}
		}
	}
	// Elided vec-only markers exist to gate this packet's release; their
	// substance (a coalesced run) replicates separately,
	// so markers die here rather than recirculating around the ring.
	xferLogs := msg.Logs
	for i := range msg.Logs {
		if msg.Logs[i].Elided() {
			xferLogs = w.xfer[:0]
			for _, l := range msg.Logs {
				if !l.Elided() {
					xferLogs = append(xferLogs, l)
				}
			}
			w.xfer = xferLogs[:0]
			break
		}
	}
	if len(xferLogs) > 0 || len(commits) > 0 {
		transfer := &w.transfer
		*transfer = Message{
			Flags:   FlagBufferTransfer,
			Gen:     msg.Gen,
			Logs:    xferLogs,
			Commits: commits,
		}
		// Encode straight onto a pooled copy of the carrier template: no
		// header build, no packet parse, no intermediate trailer body. The
		// frame leaves with the rest of the burst's transfers at the flush,
		// which then recycles it.
		tmpl := r.carrierTemplate()
		buf := netsim.AcquireFrame(len(tmpl) + transfer.LenEstimate() + 8)[:len(tmpl)]
		copy(buf, tmpl)
		if out, err := wire.AppendRawTrailer(buf, transfer); err == nil {
			w.xferOut = append(w.xferOut, out)
			buf = out
		}
		w.rel = append(w.rel, buf)
	}

	if msg.Propagating() {
		// Propagating packets die at the buffer after their commits have
		// been merged (step 1 of processPacket).
		return false
	}

	// Finalize the data packet: drop the trailer and the FTC IP option.
	pkt.DropTrailer()
	if err := pkt.RemoveFTCOption(); err != nil {
		r.stats.ParseErrors.Add(1)
		return false
	}

	// Fast path: everything this packet needs may already be committed, and
	// no packet of its flow partition waits or is on its way out.
	r.commitMu.Lock()
	ok := releasableAgainst(msg.Logs, r.commitSeen)
	r.commitMu.Unlock()
	i := partOf(pkt.Buf)
	p := &r.buf.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok && len(p.fifo()) == 0 && p.owner == nil {
		// The frame joins the worker's egress burst; ownership of the
		// backing array stays with the inbound frame, which the worker
		// recycles after the flush.
		w.egr = append(w.egr, pkt.Buf)
		return false
	}
	r.stats.Held.Add(1)
	heldLogs := w.heldLogs.Take(len(msg.Logs))
	for i := range msg.Logs {
		l := &msg.Logs[i]
		heldLogs[i] = Log{MB: l.MB, Flags: l.Flags, Vec: w.heldVecs.Clone(l.Vec)}
	}
	frame := pkt.Buf
	if w.arena != nil {
		// An ingest worker's frames die at the flush; the hold outlives it.
		frame = netsim.AcquireFrame(len(pkt.Buf))
		copy(frame, pkt.Buf)
	}
	r.buf.push(i, heldPacket{frame: frame, logs: heldLogs, gen: msg.Gen, origin: w, epoch: w.flushes.Load()})
	if ok {
		r.releaseDirty.Store(true) // committed, but behind its partition
	}
	return true
}

// releasableAgainst implements the §5.1 release rule against commit
// vectors by middlebox: every log's touched partitions must be committed
// (write logs need their own update replicated; noop logs need their reads
// replicated). The caller holds commitMu when commits is commitSeen.
func releasableAgainst(logs []Log, commits map[uint16][]uint64) bool {
	for _, l := range logs {
		if len(l.Vec) > 0 && !l.Vec.CommittedBy(commits[l.MB], l.Noop()) {
			return false
		}
	}
	return true
}

// releaseHeld runs at w's flush once a commit (or a held packet that was
// already committed) arrived: it takes the front of each partition that
// holds packets off its FIFO onto w's egress burst, in order, while the
// front is committed, so a release costs O(released) and visits no empty
// partition. A front of a fenced generation is dropped. A
// partition another bracket owns, or whose front a bracket that has not
// flushed held, is left to that bracket, asked to look again after its
// flush: it may still have the flow's earlier packets to send.
func (r *Replica) releaseHeld(w *worker) {
	if !r.releaseDirty.Swap(false) {
		return
	}
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	gen := r.gen.Load() // read under commitMu, which a fence holds to swap it
	r.buf.eachFilled(func(i int, p *flowPart[heldPacket]) {
		for len(p.fifo()) > 0 {
			h := &p.fifo()[0]
			if h.gen == gen && !releasableAgainst(h.logs, r.commitSeen) {
				break
			}
			owned := p.owner != nil && p.owner != w
			if owned {
				p.owner.relook.Store(true)
			}
			if owned || !w.after(h.origin, h.epoch) {
				r.releaseDirty.Store(true) // left set, the maintenance tick looks too
				break
			}
			if h.gen == gen {
				w.egr = append(w.egr, h.frame)
			} else {
				r.stats.FencedHeld.Add(1)
			}
			// The send copies the frame into the egress queue; then the
			// flush recycles it.
			w.rel = append(w.rel, h.frame)
			r.buf.pop(i, w, &w.heldClaims)
		}
	})
}

// fence moves the buffer node onto generation g (SetGen): under commitMu,
// each packet the outgoing lineage committed is relabelled g; a release of
// the fence's own then sends those in FIFO order and drops the rest
// (releaseHeld). That bracket drains nothing: its worker is no ingest's,
// so Stop does not wait for it, and the pending set is left to Stop.
func (r *Replica) fence(g uint32) {
	r.commitMu.Lock()
	old := r.gen.Swap(g)
	r.buf.eachFilled(func(_ int, p *flowPart[heldPacket]) {
		for j := range p.fifo() {
			if h := &p.fifo()[j]; h.gen == old && releasableAgainst(h.logs, r.commitSeen) {
				h.gen, h.logs = g, nil
			}
		}
	})
	r.commitMu.Unlock()
	w := &worker{relooking: true} // answers no relook: that would drain
	r.beginBurst(w)
	r.releaseDirty.Store(true)
	r.flushBurst(w)
}
