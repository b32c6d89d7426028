package core

import (
	"sync"
	"sync/atomic"

	"github.com/ftsfc/ftc/internal/state"
)

// Head is the first replica of a middlebox's replication group, co-located
// with the middlebox itself (§4.1). It owns the state store the middlebox's
// packet transactions run against and maintains the data dependency vector
// whose entries it stamps into piggyback logs at each transaction's
// serialization point (§4.3).
type Head struct {
	mb    uint16
	store state.Backend
	vec   []atomic.Uint64 // one sequence number per state partition
	buf   *logBuffer
	// fetchMu keeps recovery fetches off transaction commit points: the
	// read side is held across every transaction — per call in Transaction,
	// burst-wide by replica workers around TransactionBatch (a batch holds
	// partition locks between transactions, so a per-transaction read lock
	// could deadlock against a pending writer) — and Fetch takes the write
	// side, so a fetched (vector, snapshot) pair always sits on a
	// transaction boundary. A torn pair would make a recovered follower
	// double-apply delta updates or drop a multi-partition log's writes.
	fetchMu sync.RWMutex
}

// NewHead creates a head for middlebox mb over the given store.
func NewHead(mb uint16, store state.Backend) *Head {
	return &Head{
		mb:    mb,
		store: store,
		vec:   make([]atomic.Uint64, store.NumPartitions()),
		buf:   newLogBuffer(),
	}
}

// MB returns the middlebox index this head serves.
func (h *Head) MB() uint16 { return h.mb }

// Store returns the middlebox's state store.
func (h *Head) Store() state.Backend { return h.store }

// Buffer returns the head's retransmission buffer of unpruned logs.
func (h *Head) Buffer() *logBuffer { return h.buf }

// Vector snapshots the head's dependency vector.
func (h *Head) Vector() []uint64 {
	out := make([]uint64, len(h.vec))
	for i := range h.vec {
		out[i] = h.vec[i].Load()
	}
	return out
}

// RestoreVector installs a dependency vector recovered from a follower's
// MAX (§5.2: "restores the dependency matrix of the failed head by setting
// each of its rows to the retrieved MAX").
func (h *Head) RestoreVector(v []uint64) {
	for i := range h.vec {
		var s uint64
		if i < len(v) {
			s = v[i]
		}
		h.vec[i].Store(s)
	}
}

// Transaction runs fn as a packet transaction against the middlebox state
// and returns the piggyback log to attach to the packet. The log's memory is
// the caller's: nothing the head does later touches it.
//
// At the commit point — partition locks still held, so entries for the
// touched partitions cannot move concurrently — the head stamps the
// *pre-increment* sequence numbers of every touched partition into the log,
// then increments them, unless the transaction was read-only, in which case
// the observed values are stamped and nothing advances (§4.3).
func (h *Head) Transaction(fn func(tx state.Txn) error) (Log, error) {
	h.fetchMu.RLock()
	defer h.fetchMu.RUnlock()
	var vec SparseVec
	res, err := h.store.ExecWithHook(fn, func(r state.Result) {
		vec = h.stamp(make(SparseVec, 0, len(r.Touched)), r)
	})
	if err != nil {
		return Log{}, err
	}
	log := h.logOf(res, vec)
	if !log.Noop() {
		h.buf.add(log)
	}
	return log, nil
}

// HeadBatch is one worker's handle for running packet transactions through
// a state batch: the batch itself plus the dependency vector the commit
// hook stamps, which the worker owns and every transaction overwrites.
type HeadBatch struct {
	*state.Batch
	vec   SparseVec
	stamp func(state.Result) // bound once: stamps the head's vector into vec
}

// NewBatch returns a batch context for one worker's bursts of transactions.
func (h *Head) NewBatch() *HeadBatch {
	b := &HeadBatch{Batch: h.store.NewBatch()}
	b.stamp = func(r state.Result) { b.vec = h.stamp(b.vec[:0], r) }
	return b
}

// TransactionBatch is Transaction executed through a worker's batch:
// partition locks acquired by earlier transactions in the burst are reused,
// and the retransmission-buffer append is left to the caller (burst workers
// collect logs and flush them in one addAll at the burst boundary). The
// caller must hold fetchMu's read side across the whole burst.
//
// The returned log's Vec and Updates live in the batch's scratch: they are
// valid until the next TransactionBatch on b, and whoever keeps any of it
// longer copies it (the coalescer and the egress buffer do).
func (h *Head) TransactionBatch(b *HeadBatch, fn func(tx state.Txn) error) (Log, error) {
	res, err := b.ExecWithHook(fn, b.stamp)
	if err != nil {
		return Log{}, err
	}
	return h.logOf(res, b.vec), nil
}

// stamp is the commit hook's work: append the head's sequence number for
// every touched partition to dst, advancing the written ones. Touched is
// sorted, so the result is.
func (h *Head) stamp(dst SparseVec, r state.Result) SparseVec {
	for _, p := range r.Touched {
		if r.ReadOnly {
			dst = append(dst, VecEntry{Part: p, Seq: h.vec[p].Load()})
		} else {
			dst = append(dst, VecEntry{Part: p, Seq: h.vec[p].Add(1) - 1})
		}
	}
	return dst
}

// logOf assembles a committed transaction's piggyback log.
func (h *Head) logOf(res state.Result, vec SparseVec) Log {
	if res.ReadOnly {
		return Log{MB: h.mb, Flags: LogNoop, Vec: vec}
	}
	return Log{MB: h.mb, Vec: vec, Updates: res.Updates}
}

// logBuffer retains non-noop piggyback logs until a commit vector confirms
// they have been replicated f+1 times, serving repair requests from
// followers that detected a loss (§4.1 retransmission, §5.1 pruning).
type logBuffer struct {
	mu   sync.Mutex
	logs []Log
}

func newLogBuffer() *logBuffer { return &logBuffer{} }

func (b *logBuffer) add(l Log) {
	if l.Noop() {
		return // noop logs gate only their own packet; nothing to repair
	}
	b.mu.Lock()
	b.logs = append(b.logs, l)
	b.mu.Unlock()
}

// addAll appends a burst's worth of logs under one lock acquisition.
// Callers filter noop logs (add's contract) before queueing.
func (b *logBuffer) addAll(ls []Log) {
	if len(ls) == 0 {
		return
	}
	b.mu.Lock()
	b.logs = append(b.logs, ls...)
	b.mu.Unlock()
}

// Len reports the number of buffered logs.
func (b *logBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.logs)
}

// Prune drops logs whose effects the commit vector confirms replicated.
func (b *logBuffer) Prune(commit []uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := b.logs[:0]
	for _, l := range b.logs {
		if !l.Vec.CommittedBy(commit, false) {
			kept = append(kept, l)
		}
	}
	// Zero the tail so retained backing-array references don't pin memory.
	for i := len(kept); i < len(b.logs); i++ {
		b.logs[i] = Log{}
	}
	b.logs = kept
}

// Missing returns buffered logs not yet applied at a follower with the given
// MAX — i.e. logs whose vector is not superseded.
func (b *logBuffer) Missing(max []uint64) []Log {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Log
	for _, l := range b.logs {
		if !l.Vec.SupersededBy(max) {
			out = append(out, l)
		}
	}
	return out
}

// all snapshots the buffer contents (for recovery transfer).
func (b *logBuffer) all() []Log {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Log(nil), b.logs...)
}

// restore replaces the buffer contents (new replica initialization).
func (b *logBuffer) restore(logs []Log) {
	b.mu.Lock()
	b.logs = append([]Log(nil), logs...)
	b.mu.Unlock()
}
