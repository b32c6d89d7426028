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
// and returns the piggyback log to attach to the packet.
//
// At the commit point — partition locks still held, so entries for the
// touched partitions cannot move concurrently — the head stamps the
// *pre-increment* sequence numbers of every touched partition into the log,
// then increments them, unless the transaction was read-only, in which case
// the observed values are stamped and nothing advances (§4.3).
func (h *Head) Transaction(fn func(tx state.Txn) error) (Log, error) {
	h.fetchMu.RLock()
	defer h.fetchMu.RUnlock()
	log, err := h.transactionOn(h.store, fn)
	if err == nil && !log.Noop() {
		h.buf.add(log)
	}
	return log, err
}

// TransactionBatch is Transaction executed through a worker's state batch:
// partition locks acquired by earlier transactions in the burst are reused,
// and the retransmission-buffer append is left to the caller (burst workers
// collect logs and flush them in one addAll at the burst boundary). The
// caller must hold fetchMu's read side across the whole burst.
func (h *Head) TransactionBatch(b state.Batch, fn func(tx state.Txn) error) (Log, error) {
	return h.transactionOn(b, fn)
}

// execer is the common transaction surface of state.Backend and state.Batch.
type execer interface {
	ExecWithHook(fn func(tx state.Txn) error, onCommit func(state.Result)) (state.Result, error)
}

func (h *Head) transactionOn(x execer, fn func(tx state.Txn) error) (Log, error) {
	log := Log{MB: h.mb}
	res, err := x.ExecWithHook(fn, func(r state.Result) {
		vec := make(SparseVec, 0, len(r.Touched))
		for _, p := range r.Touched {
			if r.ReadOnly {
				vec = append(vec, VecEntry{Part: p, Seq: h.vec[p].Load()})
			} else {
				vec = append(vec, VecEntry{Part: p, Seq: h.vec[p].Add(1) - 1})
			}
		}
		log.Vec = vec // Touched is sorted, so vec is sorted
	})
	if err != nil {
		return Log{}, err
	}
	if res.ReadOnly {
		log.Flags |= LogNoop
	} else {
		log.Updates = res.Updates
	}
	return log, nil
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
