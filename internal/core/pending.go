package core

import (
	"slices"
	"sync"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// flowParts is the number of flow partitions the pending set keys frames
// by: wire.RSSHash of the frame modulo flowParts, so one flow always maps to
// one partition.
const flowParts = 64

// pendingSet holds the frames a replica cannot finish yet: the paper's
// follower holds an out-of-order log, not a thread (§4–5; DESIGN.md §3). A
// frame parks when a follower log of it comes back Blocked, or behind an
// earlier frame of its flow partition, a FIFO; its logs that can apply
// were applied on arrival. Frames resume at the end of a bracket whose
// applies advanced a MAX (drain), and from the maintenance tick.
// Stats.Pending counts the parked frames plus those resumed in a bracket
// that has not flushed: while it reads zero the in-order path touches
// nothing else.
type pendingSet struct {
	parts [flowParts]pendPart
}

type pendPart struct {
	mu sync.Mutex
	q  []parked
	// owner is the worker draining q in its open bracket. Until it
	// flushes, a later frame of the partition joins q rather than overtake
	// the resumed ones from another goroutine's flush.
	owner *worker
}

// parked is one frame waiting in the pending set.
type parked struct {
	frame []byte   // pooled copy of the packet
	msg   *Message // retained copy of its piggyback message, commits merged
	wait  []int    // indexes into msg.Logs of the follower logs still Blocked
	since time.Time
	// origin is the worker whose bracket parked the frame, at flush count
	// epoch: another worker may finish the frame only once that bracket has
	// flushed the frames of its flow that went on before it.
	origin *worker
	epoch  uint64
}

// park holds a frame whose onward work must wait: a follower log of it is
// Blocked (wait is non-empty), or its flow partition is not empty. It
// reports false when neither holds and the frame goes on now. A frame that
// finds the set full (Config.QueueCap) is dropped and counted.
func (r *Replica) park(pkt *wire.Packet, msg *Message, wait []int, w *worker) bool {
	p := &r.pend.parts[wire.RSSHash(pkt.Buf)%flowParts]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(wait) == 0 && len(p.q) == 0 && p.owner == nil {
		return false
	}
	if r.stats.Pending.Load() >= int64(r.cfg.QueueCap) {
		r.stats.PendingDrops.Add(1)
		return true
	}
	frame := netsim.AcquireFrame(len(pkt.Buf) + netsim.FrameHeadroom)[:len(pkt.Buf)]
	copy(frame, pkt.Buf)
	p.q = append(p.q, parked{frame: frame, msg: msg.retain(), wait: slices.Clone(wait),
		since: w.now, origin: w, epoch: w.flushes.Load()})
	r.stats.Pending.Add(1)
	// The log this frame waits for may have applied since its attempt, with
	// that apply's drain already past: this flush looks again.
	w.wake = w.wake || len(wait) > 0
	return true
}

// drain resumes, in order, the frames at the front of each partition that
// can go on now, inside w's bracket, and repeats while the resumed frames'
// applies advance a MAX. A partition another worker holds is left to it,
// told to look again after its flush (relook). Only a worker that can run
// the head's transactions drains.
func (r *Replica) drain(w *worker) {
	if r.stats.Pending.Load() == 0 || (w.batch == nil && r.head != nil) {
		return
	}
	for w.wake {
		w.wake = false
		for i := range r.pend.parts {
			p := &r.pend.parts[i]
			p.mu.Lock()
			if p.owner == nil || p.owner == w {
				r.drainPart(p, w)
			} else if len(p.q) > 0 {
				p.owner.relook.Store(true)
			}
			p.mu.Unlock()
		}
	}
}

// drainPart works through p with p.mu held. First the logs: every parked
// frame's Blocked logs are tried wherever it stands, for a log never waits
// behind frames — one behind the front may be what the front waits for.
// Past RepairDeadline they are passed on. Then the frames: the front
// resumes while it can go on, with p.mu released around it (its head
// transaction may wait on state locks that a goroutine blocked on p.mu
// holds) and p w's meanwhile; once a frame has resumed, p stays w's until
// the flush (release).
func (r *Replica) drainPart(p *pendPart, w *worker) {
	gen := r.gen.Load()
	for i := range p.q {
		if e := &p.q[i]; len(e.wait) > 0 && e.msg.Gen == gen {
			expired := w.now.Sub(e.since) >= r.cfg.RepairDeadline
			e.wait = append(e.wait[:0], r.applyLogs(e.msg, w, e.wait, expired)...)
		}
	}
	claimed := p.owner == w
	for len(p.q) > 0 {
		p.owner = w
		e := p.q[0]
		p.mu.Unlock()
		done := r.resume(&e, w)
		p.mu.Lock()
		if !done {
			p.q[0] = e
			break
		}
		p.q[0] = parked{}
		p.q = p.q[1:]
		w.resumed++
		if !claimed {
			claimed = true
			w.claims = append(w.claims, p)
		}
	}
	if !claimed {
		p.owner = nil
	}
}

// resume finishes parked frame e on w if it can go on now: its logs are
// settled and its bracket of origin has flushed. A frame of a fenced
// generation is dropped, as the next hop would drop it; its logs were
// never retried under the new lineage.
func (r *Replica) resume(e *parked, w *worker) bool {
	if e.msg.Gen != r.gen.Load() {
		r.stats.StaleGen.Add(1)
		w.rel = append(w.rel, e.frame)
		return true
	}
	if len(e.wait) > 0 {
		return false
	}
	if e.origin != w && e.origin.flushes.Load() == e.epoch {
		// Its bracket of origin finishes the frame after its flush. Asked
		// before the second look, so a flush between the two still sees it.
		e.origin.relook.Store(true)
		if e.origin.flushes.Load() == e.epoch {
			return false
		}
	}
	pkt := &w.pkt
	if err := wire.ParseInto(pkt, e.frame); err != nil {
		r.stats.ParseErrors.Add(1)
		w.rel = append(w.rel, e.frame)
		return true
	}
	w.last = true // each resumed frame closes its own coalesced run
	if !r.onward(pkt, e.msg, w) || w.arena != nil || &pkt.Buf[0] != &e.frame[0] {
		w.rel = append(w.rel, e.frame) // not held, or held as a copy
	}
	return true
}

// release ends w's claims at the close of its flush, once the frames it
// resumed have left.
func (r *Replica) release(w *worker) {
	for _, p := range w.claims {
		p.mu.Lock()
		p.owner = nil
		p.mu.Unlock()
	}
	reset(&w.claims)
	r.stats.Pending.Add(-w.resumed)
	w.resumed = 0
}

// relookRounds bounds the drain-only brackets one flush runs on request;
// the maintenance tick drains whatever a longer run of requests leaves.
const relookRounds = 4

// relook answers the requests other drains left on w while it held a
// partition or had not flushed a frame it parked: a bracket that only
// drains, while requests keep coming, up to relookRounds.
func (r *Replica) relook(w *worker) {
	w.relooking = true
	for i := 0; i < relookRounds && w.relook.Swap(false); i++ {
		r.beginBurst(w)
		w.wake = true
		r.flushBurst(w)
	}
	w.relooking = false
}

// kick drains in a bracket of its own, on a worker borrowed as an ingest
// borrows one (a no-op before Start and after a crash).
func (r *Replica) kick() {
	if w := r.enter(); w != nil {
		r.beginBurst(w)
		w.wake = true
		r.flushBurst(w)
		r.leave(w)
	}
}

// gaps lists the middleboxes whose logs hold a frame parked for a full
// RepairEvery by now: the maintenance tick repairs them. A partition a
// drain owns is skipped (its front is being resumed).
func (r *Replica) gaps(now time.Time) []uint16 {
	var mbs []uint16
	for i := range r.pend.parts {
		p := &r.pend.parts[i]
		p.mu.Lock()
		for _, e := range p.q {
			if p.owner != nil || now.Sub(e.since) < r.cfg.RepairEvery {
				break // owned by a drain, or the rest of the FIFO is younger
			}
			for _, j := range e.wait {
				if mb := e.msg.Logs[j].MB; !slices.Contains(mbs, mb) {
					mbs = append(mbs, mb)
				}
			}
		}
		p.mu.Unlock()
	}
	return mbs
}

// dropPending releases the parked frames unprocessed (Stop).
func (r *Replica) dropPending() {
	for i := range r.pend.parts {
		p := &r.pend.parts[i]
		p.mu.Lock()
		for _, e := range p.q {
			netsim.ReleaseFrame(e.frame)
		}
		p.q = nil
		p.mu.Unlock()
	}
	r.stats.Pending.Store(0)
}

// retain copies a message out of the decode scratch and the worker's
// reused arrays, for a holder that outlives the burst.
func (m *Message) retain() *Message {
	c := &Message{Ver: m.Ver, Flags: m.Flags, FullValues: m.FullValues, Gen: m.Gen,
		Logs: make([]Log, len(m.Logs)), Commits: make([]Commit, len(m.Commits))}
	for i := range m.Logs {
		c.Logs[i] = m.Logs[i].Retain()
	}
	for i, cm := range m.Commits {
		c.Commits[i] = Commit{MB: cm.MB, Vec: cm.Vec.Clone()}
	}
	return c
}
