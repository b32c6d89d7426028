package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// flowParts is the number of flow partitions the pending set and the
// egress buffer key frames by: wire.RSSHash of the frame modulo flowParts,
// so one flow always maps to one partition.
const flowParts = 64

// flowFIFOs is one FIFO per flow partition, with the ownership that keeps a
// flow's order across workers: the pending set's and the egress buffer's.
// A partition's owner is the worker that took entries off its FIFO in an
// open bracket; until that worker's flush has sent them on (unclaim), a
// later frame of the partition joins the FIFO rather than overtake them
// from another goroutine's flush.
type flowFIFOs[E any] struct {
	parts [flowParts]flowPart[E]
	// filled has bit i set while partition i's FIFO is non-empty; both
	// transitions happen under the partition's lock (push, pop).
	filled atomic.Uint64
}

type flowPart[E any] struct {
	mu    sync.Mutex
	q     []E // q[head:] waits, oldest first
	head  int
	owner *worker
}

// fifo is what waits in the partition; the lock is held.
func (p *flowPart[E]) fifo() []E { return p.q[p.head:] }

// partOf is frame's flow partition.
func partOf(frame []byte) int { return int(wire.RSSHash(frame) % flowParts) }

// each calls fn on every partition, with its lock held.
func (s *flowFIFOs[E]) each(fn func(i int, p *flowPart[E])) {
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		fn(i, p)
		p.mu.Unlock()
	}
}

// eachFilled calls fn on every partition whose FIFO was non-empty when it
// looked, with its lock held: a partition that fills meanwhile is left to
// whoever filled it.
func (s *flowFIFOs[E]) eachFilled(fn func(i int, p *flowPart[E])) {
	for m := s.filled.Load(); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		p := &s.parts[i]
		p.mu.Lock()
		fn(i, p)
		p.mu.Unlock()
	}
}

// mark sets (on) or clears partition i's bit in filled.
func (s *flowFIFOs[E]) mark(i int, on bool) {
	for {
		old := s.filled.Load()
		m := old &^ (1 << i)
		if on {
			m = old | 1<<i
		}
		if s.filled.CompareAndSwap(old, m) {
			return
		}
	}
}

// push appends e to partition i's FIFO; its lock is held.
func (s *flowFIFOs[E]) push(i int, e E) {
	p := &s.parts[i]
	if len(p.fifo()) == 0 {
		s.mark(i, true)
	}
	if p.head > 0 && len(p.q) == cap(p.q) {
		n := copy(p.q, p.fifo()) // reuse the popped room before growing
		clear(p.q[n:])
		p.q, p.head = p.q[:n], 0
	}
	p.q = append(p.q, e)
}

// pop removes partition i's front for w, which owns the partition until
// its flush; the lock is held. claims is w's claim mask on s.
func (s *flowFIFOs[E]) pop(i int, w *worker, claims *uint64) {
	p := &s.parts[i]
	clear(p.q[p.head : p.head+1])
	if p.head++; p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
		s.mark(i, false)
	}
	p.owner = w
	*claims |= 1 << i
}

// unclaim ends a worker's claims at the close of its flush, once what it
// took off the FIFOs has gone on.
func (s *flowFIFOs[E]) unclaim(claims *uint64) {
	for m := *claims; m != 0; m &= m - 1 {
		p := &s.parts[bits.TrailingZeros64(m)]
		p.mu.Lock()
		p.owner = nil
		p.mu.Unlock()
	}
	*claims = 0
}

// pendingSet holds the frames a replica cannot finish yet: the paper's
// follower holds an out-of-order log, not a thread (§4–5; DESIGN.md §3). A
// frame parks when a follower log of it comes back Blocked or Partial, or
// behind an earlier frame of its flow partition, a FIFO; its logs that can
// apply were applied on arrival, runs in part. Frames resume at the end
// of a bracket whose applies advanced a MAX (drain), and from the
// maintenance tick.
// Stats.Pending counts the parked frames plus those resumed in a bracket
// that has not flushed: while it reads zero the in-order path touches
// nothing else.
type pendingSet = flowFIFOs[parked]

// parked is one frame waiting in the pending set.
type parked struct {
	frame []byte   // pooled copy of the packet
	msg   *Message // retained copy of its piggyback message, commits merged
	wait  []int    // indexes into msg.Logs of the follower logs not yet whole
	since time.Time
	// origin is the worker whose bracket parked the frame, at flush count
	// epoch: another worker may finish the frame only once that bracket has
	// flushed the frames of its flow that went on before it.
	origin *worker
	epoch  uint64
}

// park holds a frame whose onward work must wait: a follower log of it is
// Blocked or Partial (wait is non-empty), or its flow partition is not empty. It
// reports false when neither holds and the frame goes on now. A frame that
// finds the set full (Config.QueueCap) is dropped and counted.
func (r *Replica) park(pkt *wire.Packet, msg *Message, wait []int, w *worker) bool {
	i := partOf(pkt.Buf)
	p := &r.pend.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(wait) == 0 && len(p.fifo()) == 0 && p.owner == nil {
		return false
	}
	if r.stats.Pending.Load() >= int64(r.cfg.QueueCap) {
		r.stats.PendingDrops.Add(1)
		return true
	}
	frame := netsim.AcquireFrame(len(pkt.Buf) + netsim.FrameHeadroom)[:len(pkt.Buf)]
	copy(frame, pkt.Buf)
	r.pend.push(i, parked{frame: frame, msg: msg.retain(), wait: slices.Clone(wait),
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
		r.pend.each(func(i int, p *flowPart[parked]) {
			if p.owner == nil || p.owner == w {
				r.drainPart(i, p, w)
			} else if len(p.fifo()) > 0 {
				p.owner.relook.Store(true)
			}
		})
	}
}

// drainPart works through p with p.mu held. First the logs: every parked
// frame's waiting logs are tried wherever it stands, for a log never waits
// behind frames — one behind the front may be what the front waits for.
// Past RepairDeadline they are passed on. Then the frames: the front
// resumes while it can go on, with p.mu released around it (its head
// transaction may wait on state locks that a goroutine blocked on p.mu
// holds) and p w's meanwhile; once a frame has resumed, p stays w's until
// the flush (release).
func (r *Replica) drainPart(i int, p *flowPart[parked], w *worker) {
	gen := r.gen.Load()
	for j := range p.fifo() {
		if e := &p.fifo()[j]; len(e.wait) > 0 && e.msg.Gen == gen {
			expired := w.now.Sub(e.since) >= r.cfg.RepairDeadline
			e.wait = append(e.wait[:0], r.applyLogs(e.msg, w, e.wait, expired)...)
		}
	}
	for len(p.fifo()) > 0 {
		p.owner = w
		e := p.fifo()[0]
		p.mu.Unlock()
		done := r.resume(&e, w)
		p.mu.Lock()
		if !done {
			p.fifo()[0] = e
			break
		}
		r.pend.pop(i, w, &w.claims)
		w.resumed++
	}
	if w.claims&(1<<i) == 0 {
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
	if !w.after(e.origin, e.epoch) {
		return false // its bracket of origin finishes it after its flush
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

// after reports whether w may send on an entry that origin's bracket took
// in at flush count epoch: the bracket is w's own, or it has flushed the
// entries of its flow that went on before. If not, origin is asked to look
// again after its flush — asked before the second look, so a flush between
// the two still sees it.
func (w *worker) after(origin *worker, epoch uint64) bool {
	if origin == w || origin.flushes.Load() != epoch {
		return true
	}
	origin.relook.Store(true)
	return origin.flushes.Load() != epoch
}

// release ends w's pending-set claims at the close of its flush, once the
// frames it resumed have left.
func (r *Replica) release(w *worker) {
	r.pend.unclaim(&w.claims)
	r.stats.Pending.Add(-w.resumed)
	w.resumed = 0
}

// relookRounds bounds the drain-only brackets one flush runs on request;
// the maintenance tick drains whatever a longer run of requests leaves.
const relookRounds = 4

// relook answers the requests other drains and releases left on w while
// it held a partition or had not flushed what it parked or held: a bracket
// that only drains the pending set and releases what the egress buffer
// holds, while requests keep coming, up to relookRounds.
func (r *Replica) relook(w *worker) {
	w.relooking = true
	for i := 0; i < relookRounds && w.relook.Swap(false); i++ {
		r.beginBurst(w)
		w.wake = true
		if r.buf != nil {
			r.releaseDirty.Store(true)
		}
		r.flushBurst(w)
	}
	w.relooking = false
}

// kick looks again (relook) on a worker borrowed as an ingest borrows one
// (a no-op before Start and after a crash).
func (r *Replica) kick() {
	if w := r.enter(); w != nil {
		w.relook.Store(true)
		r.relook(w)
		r.leave(w)
	}
}

// gaps lists the middleboxes whose logs hold a frame parked for a full
// RepairEvery by now: the maintenance tick repairs them. A partition a
// drain owns is skipped (its front is being resumed).
func (r *Replica) gaps(now time.Time) []uint16 {
	var mbs []uint16
	r.pend.each(func(_ int, p *flowPart[parked]) {
		for _, e := range p.fifo() {
			if p.owner != nil || now.Sub(e.since) < r.cfg.RepairEvery {
				break // owned by a drain, or the rest of the FIFO is younger
			}
			for _, j := range e.wait {
				if mb := e.msg.Logs[j].MB; !slices.Contains(mbs, mb) {
					mbs = append(mbs, mb)
				}
			}
		}
	})
	return mbs
}

// dropPending releases the parked frames unprocessed (Stop).
func (r *Replica) dropPending() {
	r.pend.each(func(_ int, p *flowPart[parked]) {
		for _, e := range p.fifo() {
			netsim.ReleaseFrame(e.frame)
		}
		p.q, p.head = nil, 0
	})
	r.pend.filled.Store(0)
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
