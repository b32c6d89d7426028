package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/hashx"
)

// forwarder is the element at the chain's ingress (§5): it receives the
// piggyback messages the buffer transfers back from the chain's egress and
// attaches them to incoming packets, so that state updates of middleboxes at
// the end of the chain replicate at servers hosting the beginning.
//
// Pending logs are retransmitted (attached again) if no commit vector has
// covered them after a resend interval, which keeps held packets releasable
// even when an attaching packet is lost in the network. Followers suppress
// the resulting duplicates via their MAX vectors.
type forwarder struct {
	mu      sync.Mutex
	pending []pendingLog
	// pendSet holds the identity hash of every pending log so a log
	// re-transferred by the buffer (the head anti-entropy path re-emits
	// uncommitted logs until they commit) joins the pending set at most
	// once. A hash collision only drops a resend — the next retransmission
	// cycle recovers it — never data.
	pendSet map[uint64]struct{}
	// commits is the latest commit per middlebox not yet re-injected. The
	// forwarder owns each vector from the addTransfer that stored it until
	// the take that hands it out, and merges into it in place in between.
	commits map[uint16]SparseVec
	// sentAt is when the node first sent frames downstream after the last
	// transfer came back (unix nanos, 0 once one has): the forwarder-silence
	// evidence (suspect.go).
	sentAt atomic.Int64
}

type pendingLog struct {
	log    Log
	sentAt time.Time // zero until first attached
}

// logKey folds a log's identity (middlebox + dependency vector) into the
// pendSet hash. Updates are excluded: (MB, Vec) already identifies the
// transaction.
func logKey(l *Log) uint64 {
	h := hashx.MixByte64(hashx.Sum64(nil), byte(l.MB))
	h = hashx.MixByte64(h, byte(l.MB>>8))
	for _, e := range l.Vec {
		h = hashx.MixByte64(h, byte(e.Part))
		h = hashx.MixByte64(h, byte(e.Part>>8))
		for s := 0; s < 64; s += 8 {
			h = hashx.MixByte64(h, byte(e.Seq>>s))
		}
	}
	return h
}

func newForwarder() *forwarder {
	return &forwarder{
		pendSet: make(map[uint64]struct{}),
		commits: make(map[uint16]SparseVec),
	}
}

// addTransfer ingests a buffer-transfer message: wrapped logs join the
// pending set, commit vectors are stored for re-injection and used to prune
// pending logs that are already replicated f+1 times.
func (f *forwarder) addTransfer(m *Message) {
	if f.sentAt.Load() != 0 {
		f.sentAt.Store(0)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range m.Commits {
		prev, ok := f.commits[c.MB]
		if !ok {
			// First commit for this middlebox since take handed the last
			// vector away (a timer may still be encoding that one): copy
			// once, out of the sender's decode scratch.
			prev = make(SparseVec, 0, len(c.Vec))
		}
		f.commits[c.MB] = mergeMaxInto(prev, c.Vec)
	}
	for _, l := range m.Logs {
		if l.Elided() {
			continue // vec-only markers die at the buffer; never recirculate
		}
		if f.committedLocked(l) {
			continue
		}
		k := logKey(&l)
		if _, dup := f.pendSet[k]; dup {
			continue
		}
		f.pendSet[k] = struct{}{}
		// The message may be backed by a per-worker decode scratch that is
		// reused on the next frame; pending logs outlive it, so clone.
		f.pending = append(f.pending, pendingLog{log: l.Retain()})
	}
	f.prune()
}

// committedLocked reports whether the stored commit for l.MB covers l.
func (f *forwarder) committedLocked(l Log) bool {
	c, ok := f.commits[l.MB]
	if !ok {
		return false
	}
	need := uint64(1)
	if l.Noop() {
		need = 0
	}
	for _, e := range l.Vec {
		if c.Get(e.Part) == DontCare || c.Get(e.Part) < e.Seq+need {
			return false
		}
	}
	return len(l.Vec) > 0
}

func (f *forwarder) prune() {
	kept := f.pending[:0]
	for _, p := range f.pending {
		if !f.committedLocked(p.log) {
			kept = append(kept, p)
		} else {
			delete(f.pendSet, logKey(&p.log))
		}
	}
	for i := len(kept); i < len(f.pending); i++ {
		f.pending[i] = pendingLog{}
	}
	f.pending = kept
}

// takeBatch bounds how many pending logs ride one packet: a burst can leave
// thousands pending, while a trailer body holds at most 0xffff bytes
// (AppendRawTrailer) and, on sockets, the whole frame within trans.MaxFrame
// (16 KiB). The backlog drains across subsequent packets and propagating
// ticks.
const takeBatch = 64

// take returns the piggyback content to attach to the next packet entering
// the chain: pending logs never attached (or overdue for resend), oldest
// first and at most takeBatch of them, and every commit vector received
// since the last take. Both are appended to the caller's logs and commits,
// which must come in empty.
func (f *forwarder) take(now time.Time, resendAfter time.Duration, logs []Log, commits []Commit) ([]Log, []Commit) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.pending {
		if len(logs) >= takeBatch {
			break
		}
		p := &f.pending[i]
		if p.sentAt.IsZero() || now.Sub(p.sentAt) >= resendAfter {
			p.sentAt = now
			logs = append(logs, p.log)
		}
	}
	if len(f.commits) > 0 {
		for mb, v := range f.commits {
			commits = append(commits, Commit{MB: mb, Vec: v})
		}
		// Commits are re-injected once; tails refresh them on every packet,
		// so holding them longer only bloats messages. Clearing keeps the
		// map's buckets instead of reallocating them every take.
		clear(f.commits)
	}
	return logs, commits
}

// pendingLen reports the number of pending logs (for tests and metrics).
func (f *forwarder) pendingLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// mergeMaxInto folds src into dst entry-wise by maximum, in place: dst
// stays sorted by partition, and a partition it lacks is inserted in order
// (growing dst only then). src comes off the wire, so it need not be sorted;
// an out-of-order entry just restarts the position scan.
func mergeMaxInto(dst, src SparseVec) SparseVec {
	i := 0
	for _, e := range src {
		if i > 0 && dst[i-1].Part >= e.Part {
			i = 0
		}
		for i < len(dst) && dst[i].Part < e.Part {
			i++
		}
		if i < len(dst) && dst[i].Part == e.Part {
			if e.Seq > dst[i].Seq {
				dst[i].Seq = e.Seq
			}
			continue
		}
		dst = append(dst, VecEntry{})
		copy(dst[i+1:], dst[i:])
		dst[i] = e
	}
	return dst
}
