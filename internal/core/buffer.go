package core

import (
	"sync"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// egressBuffer is the element at the chain's egress (§5): it withholds each
// packet until the state updates of middleboxes whose replication groups
// wrap past the chain's end (their tails sit at the beginning of the chain)
// are confirmed replicated f+1 times by commit vectors carried on later
// packets, and it transfers piggyback messages back to the forwarder.
type egressBuffer struct {
	mu   sync.Mutex
	held []heldPacket
	tick uint32 // throttles commit-view transfers
}

type heldPacket struct {
	frame []byte // the finalized packet, ready for release (buffer-owned)
	// logs are this packet's logs still awaiting commit confirmation.
	// Vec-only clones: the release rule needs MB, Flags and Vec, so the
	// updates (and the decode scratch backing them) are not retained.
	logs []Log
	// gen is the chain generation the packet was admitted under. After a
	// generation bump the new lineage resumes log sequencing from a fetched
	// (possibly lagging) vector, so its commit vectors can cover an older
	// packet's sequence numbers without covering its state: held packets
	// from a fenced generation must be dropped, never released.
	gen uint32
}

func newEgressBuffer() *egressBuffer { return &egressBuffer{} }

func (b *egressBuffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.held)
}

// bufferStage runs the chain-egress pipeline on the last ring node: it
// transfers the packet's remaining piggyback message to the forwarder,
// then holds or releases the packet per the §5.1 release rule. The return
// value reports whether the packet was held: the buffer then owns pkt.Buf
// (a pooled copy of it on an ingest worker, whose frames die at the flush),
// and tryRelease recycles it once it egresses. Egress sends and the
// held-packet release scan are deferred to w's flush.
func (r *Replica) bufferStage(pkt *wire.Packet, msg *Message, w *worker) bool {
	// Transfer wrapped logs and in-flight commit vectors to the forwarder
	// so they continue around the ring (the paper ships these on a
	// dedicated link between the last and first servers). The buffer also
	// attaches its own merged commit view for the wrapped middleboxes:
	// their commits were retired at their heads mid-chain, and without
	// them the forwarder could never prune its pending logs.
	commits := msg.Commits
	r.buf.mu.Lock()
	r.buf.tick++
	includeView := r.buf.tick%commitEvery == 1 || msg.Propagating()
	r.buf.mu.Unlock()
	if !includeView && w.last && r.commitStale(w.now) {
		includeView = true
	}
	if includeView {
		for _, j := range r.wrappedMBs() {
			if sv := w.sparse(func(dst SparseVec) SparseVec { return r.appendCommit(dst, j) }); len(sv) > 0 {
				commits = append(commits, Commit{MB: j, Vec: sv})
			}
		}
	}
	// Elided vec-only markers exist to gate this packet's release; their
	// substance (a coalesced run or a spillover push) replicates separately,
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

	// Fast path: everything this packet needs may already be committed.
	if r.releasable(msg.Logs) {
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
	r.buf.mu.Lock()
	r.buf.held = append(r.buf.held, heldPacket{frame: frame, logs: heldLogs, gen: msg.Gen})
	r.buf.mu.Unlock()
	return true
}

// releasable reports whether every log is covered by the replica's merged
// commit vectors. It holds commitMu once for the whole check; the commit
// slices are only mutated under that lock, so no cloning is needed.
func (r *Replica) releasable(logs []Log) bool {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	return releasableAgainst(logs, func(mb uint16) []uint64 { return r.commitSeen[mb] })
}

// releasableAgainst implements the §5.1 release rule against a commit
// lookup: every log's touched partitions must be committed (write logs need
// their own update replicated; noop logs need their reads replicated).
func releasableAgainst(logs []Log, commitFor func(mb uint16) []uint64) bool {
	for _, l := range logs {
		if len(l.Vec) == 0 {
			continue
		}
		if !l.Vec.CommittedBy(commitFor(l.MB), l.Noop()) {
			return false
		}
	}
	return true
}

// maybeRelease scans held packets only when new commit information for a
// wrapped middlebox has arrived since the last scan, keeping the release
// path amortized O(1) per packet.
func (r *Replica) maybeRelease() {
	if !r.releaseDirty.Swap(false) {
		return
	}
	r.tryRelease()
}

// tryRelease scans held packets and releases those whose commit condition
// is now met, in arrival order. Packets admitted under an older generation
// are dropped instead: once the chain is fenced onto a new lineage, the
// merged commit vectors mix sequence numbers from both lineages and can no
// longer prove an old packet's state survived.
func (r *Replica) tryRelease() {
	cur := r.gen.Load()
	r.buf.mu.Lock()
	// Sized for the common scan, where a commit releases everything held.
	ready := make([][]byte, 0, len(r.buf.held))
	var fenced [][]byte
	kept := r.buf.held[:0]
	r.commitMu.Lock()
	commitFor := func(mb uint16) []uint64 { return r.commitSeen[mb] }
	for _, h := range r.buf.held {
		switch {
		case h.gen != cur:
			fenced = append(fenced, h.frame)
		case releasableAgainst(h.logs, commitFor):
			ready = append(ready, h.frame)
		default:
			kept = append(kept, h)
		}
	}
	r.commitMu.Unlock()
	for i := len(kept); i < len(r.buf.held); i++ {
		r.buf.held[i] = heldPacket{}
	}
	r.buf.held = kept
	r.buf.mu.Unlock()
	r.egressBurst(ready)
	for _, frame := range ready {
		// The buffer was the frame's sole owner; the send copied it into the
		// egress queue, so the buffer can go back to the frame pool.
		netsim.ReleaseFrame(frame)
	}
	for _, frame := range fenced {
		r.stats.FencedHeld.Add(1)
		netsim.ReleaseFrame(frame)
	}
}

// egressBurst sends finalized packets out of the chain (counted and
// discarded when the chain has no egress node).
func (r *Replica) egressBurst(frames [][]byte) {
	if r.egress == "" || r.sim.SendBurstBlocking(r.egress, frames) == nil {
		r.stats.Egress.Add(uint64(len(frames)))
	}
}

// wrappedMBs lists the middleboxes whose replication groups wrap past the
// chain's end (cached on first use; topology is fixed).
func (r *Replica) wrappedMBs() []uint16 {
	r.wrapOnce.Do(func() {
		for j := 0; j < r.cfg.NumMB; j++ {
			if r.ring.Wrapped(j) {
				r.wrapped = append(r.wrapped, uint16(j))
			}
		}
	})
	return r.wrapped
}
