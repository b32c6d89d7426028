package state

import (
	"errors"

	"github.com/ftsfc/ftc/internal/slab"
)

// Batch runs packet transactions for one worker goroutine and amortizes
// transaction begin/commit across a burst (vector packet processing,
// DPDK-style). Each transaction is serializable, atomically committed and
// re-executed when wounded, but the batch may keep partition locks between
// consecutive transactions, so a burst of packets hitting the same
// partitions pays one acquisition instead of one per packet. Store.Exec is
// a batch of one.
//
// A batch is not safe for concurrent use. Flush MUST be called at every
// burst boundary: it releases any locks held across transactions so other
// workers (and non-transactional readers) are never starved between
// bursts. The batch remains usable after Flush.
//
// The holder takes part in wound-wait like any transaction: if an older
// transaction wounds it, the next acquisition (or the next Exec) releases
// everything and retries, so deadlock freedom is preserved.
//
// Result lifetime: the Touched and Updates slices of a Result returned by
// (or passed to the commit hook of) a batch transaction are backed by the
// batch's own arrays. They are valid until the next Exec on this batch;
// reading them after that is a bug. Consumers copy what they keep (the
// coalescer copies entries, the codec encodes at once, Store.Exec copies
// both out). Update values are not part of the scratch: they are immutable
// and live as long as anything references them.
type Batch struct {
	store *Store
	hold  *lockTxn  // lock holder persisting across Execs within a burst
	view  batchView // per-Exec scratch, reused
	execs int       // commits since the last flush (MaxBatchTxns cap)
}

// MaxBatchTxns bounds how many transactions a batch may commit before it
// flushes itself. With adaptive burst sizing a burst can reach hundreds of
// packets; the auto-flush caps how long one worker retains partition locks
// within such a burst, so contending workers and non-transactional readers
// are never starved for a whole jumbo burst. Flushing mid-burst is
// semantically free — Flush is legal at any point and every transaction has
// already committed when it runs.
const MaxBatchTxns = 64

// NewBatch returns a batch context for one worker's bursts of transactions.
func (s *Store) NewBatch() *Batch {
	b := &Batch{store: s}
	b.hold = newTxn(s, s.tsCtr.Add(1))
	b.view.batch = b
	return b
}

// Exec runs fn as a packet transaction within the batch.
func (b *Batch) Exec(fn func(tx Txn) error) (Result, error) {
	return b.ExecWithHook(fn, nil)
}

// ExecWithHook is Exec with a commit hook that runs after the writes are
// applied, at the transaction's serialization point. If fn returns an error
// other than ErrWounded, nothing commits and ExecWithHook returns it.
func (b *Batch) ExecWithHook(fn func(tx Txn) error, onCommit func(Result)) (Result, error) {
	retries := 0
	for {
		// A wound that landed while the holder sat on locks between packets
		// is honoured here: release everything and retry, keeping the
		// original timestamp so the wounded holder eventually becomes oldest
		// and wins.
		if b.hold.isWounded() {
			b.hold.release()
		}
		v := &b.view
		v.reset()
		err := fn(v)
		if err == nil {
			res := v.commit(onCommit)
			res.Retries = retries
			b.execs++
			if b.execs >= MaxBatchTxns {
				b.Flush()
			}
			return res, nil
		}
		if errors.Is(err, ErrWounded) {
			b.hold.release()
			retries++
			continue
		}
		// Voluntary abort: buffered writes die with the view; locks stay with
		// the holder until the burst flushes (harmless — effects were never
		// applied, and 2PL does not require early release).
		return Result{}, err
	}
}

// Flush releases every held partition lock and starts the next burst as a
// fresh wound-wait participant.
func (b *Batch) Flush() {
	b.execs = 0
	if len(b.hold.held) == 0 {
		return
	}
	b.hold.release()
	// A fresh timestamp per burst keeps the holder from aging into a
	// permanent wound-everyone priority across bursts.
	b.hold.ts = b.store.tsCtr.Add(1)
}

// batchView is one transaction's state inside a Batch: its own touched
// set, read-your-writes buffer, and write log, while lock ownership lives
// with the batch holder. Reused across Execs by the owning worker, and the
// Result it commits is backed by these same arrays (see Batch).
//
// Reads return slices of a per-view arena (valid until the next operation
// on the transaction — middleboxes consume values before their next state
// call), so the steady Get path allocates nothing. Written values outlive
// the transaction inside the replication log for a time nobody can
// predict, so they are carved from a slab the garbage collector reclaims.
type batchView struct {
	batch    *Batch
	touched  []uint16       // backs Result.Touched
	writes   map[string]int // key → index of its write in writeLog (lazy)
	writeLog []Update       // program order, deduplicated by key; backs Result.Updates
	vals     slab.Slab[byte]
	rbuf     []byte // read arena: holds the last Get's bytes
}

func (v *batchView) reset() {
	v.touched = v.touched[:0]
	if len(v.writeLog) > 0 {
		clear(v.writes)
		clear(v.writeLog) // drop the value references
		v.writeLog = v.writeLog[:0]
	}
}

// bufferWrite records a write of key (val == nil deletes), deduplicating by
// key.
func (v *batchView) bufferWrite(key string, val []byte, p uint16) {
	if i, ok := v.writes[key]; ok {
		v.writeLog[i].Value = val
		return
	}
	if v.writes == nil {
		v.writes = make(map[string]int, 4)
	}
	v.writes[key] = len(v.writeLog)
	v.writeLog = append(v.writeLog, Update{Key: key, Value: val, Partition: p})
}

// lockPartition ensures the batch holder owns partition p and records it in
// this transaction's touched set. Partitions already held by the burst are
// free; new ones go through the ordinary wound-wait acquisition.
func (v *batchView) lockPartition(p uint16) error {
	for _, t := range v.touched {
		if t == p {
			return nil
		}
	}
	if err := v.batch.hold.lock(p); err != nil {
		return err
	}
	v.touched = append(v.touched, p)
	return nil
}

// Get reads a key within the batched transaction. The returned slice is a
// view into the transaction's read arena: it stays valid only until the
// next operation on this transaction. Callers needing the bytes longer must
// copy (ordinary middlebox code decodes the value immediately).
func (v *batchView) Get(key string) ([]byte, bool, error) {
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return nil, false, err
	}
	if i, ok := v.writes[key]; ok { // read-your-writes
		w := v.writeLog[i].Value
		if w == nil {
			return nil, false, nil
		}
		return v.arena(w), true, nil
	}
	part := &v.batch.store.parts[p]
	part.mu.Lock()
	val, ok := part.tab.getRefresh(key, v.batch.store.exp.nowTick())
	var out []byte
	if ok {
		out = v.arena(val) // copy out while the mutex protects the buffer
	}
	part.mu.Unlock()
	return out, ok, nil
}

// GetKey implements Txn. An inline key becomes a string on this frame's
// stack: Get keeps no reference to it.
func (v *batchView) GetKey(k Key) ([]byte, bool, error) {
	if k.long != "" {
		return v.Get(k.long)
	}
	return v.Get(string(k.b[:k.n]))
}

// arena copies val into the view's read buffer and returns the copy.
func (v *batchView) arena(val []byte) []byte {
	if v.rbuf == nil {
		v.rbuf = make([]byte, 0, 128)
	}
	v.rbuf = append(v.rbuf[:0], val...)
	return v.rbuf
}

// Put buffers a write, visible at commit.
func (v *batchView) Put(key string, val []byte) error {
	buf, err := v.Write(key, len(val))
	if err != nil {
		return err
	}
	copy(buf, val)
	return nil
}

// Write implements Txn: the returned buffer is the slab carve that commits.
func (v *batchView) Write(key string, n int) ([]byte, error) {
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return nil, err
	}
	// The value buffer must be fresh — the committed update outlives this
	// transaction inside the replication log.
	buf := v.vals.Take(n)
	v.bufferWrite(key, buf, p)
	return buf, nil
}

// Delete buffers a deletion.
func (v *batchView) Delete(key string) error {
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return err
	}
	v.bufferWrite(key, nil, p)
	return nil
}

// DeleteExpired implements ExpiryTxn: it buffers a deletion only if key is
// still present with an elapsed TTL at now, so a refresh that raced the
// expiry collection wins.
func (v *batchView) DeleteExpired(key string, now int64) (bool, error) {
	cfg := v.batch.store.exp
	if cfg == nil {
		return false, nil
	}
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return false, err
	}
	if _, ok := v.writes[key]; ok {
		return false, nil // a buffered write in this txn supersedes expiry
	}
	part := &v.batch.store.parts[p]
	part.mu.Lock()
	due := part.tab.expiredAt(key, cfg.ticksAt(now))
	part.mu.Unlock()
	if !due {
		return false, nil
	}
	return true, v.Delete(key)
}

// commit applies the buffered writes while the holder's locks are held and
// invokes the hook at the serialization point. Locks are NOT released —
// that is the batch's whole point; Flush returns them at the burst boundary.
func (v *batchView) commit(onCommit func(Result)) Result {
	sortU16(v.touched)
	res := Result{ReadOnly: len(v.writeLog) == 0, Touched: v.touched, Updates: v.writeLog}
	now := v.batch.store.exp.nowTick()
	for i := range v.writeLog {
		u := &v.writeLog[i]
		part := &v.batch.store.parts[u.Partition]
		part.mu.Lock()
		if u.Value == nil {
			part.tab.del(u.Key)
		} else {
			// The old value is still installed here: classify before put.
			classifyDelta(v.batch.store.delta, &part.tab, u)
			// u.Value stays exclusively the piggybacked update's; the table
			// keeps its own copy in a recycled slot buffer.
			part.tab.put(u.Key, u.Value, now)
		}
		part.mu.Unlock()
	}
	if onCommit != nil {
		onCommit(res)
	}
	return res
}

// compile-time checks: the views satisfy the transaction interface plus
// the ExpiryTxn extension.
var (
	_ Txn       = (*batchView)(nil)
	_ ExpiryTxn = (*batchView)(nil)
)
