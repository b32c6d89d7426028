package state

import (
	"errors"
	"sort"
	"sync"
)

// OCCStore is an optimistic-concurrency alternative to the locking Store:
// transactions execute without locks against versioned data, then validate
// their read set and install their writes atomically at commit (TL2-style).
// Conflicting transactions abort and re-execute.
//
// The paper notes its transactional packet-processing model "is easily
// adaptable to hybrid transactional memory" (§3.2); OCCStore is the
// software analogue of that adaptation — the commit-time validate+install
// step is exactly what an HTM region would replace. It implements the same
// Backend interface as Store, so middleboxes and the FTC replication roles
// run on either engine unchanged.
//
// OCC shines on read-heavy, low-contention workloads (no lock traffic on
// reads); under write contention it wastes re-executions where wound-wait
// 2PL would serialize. The A5 ablation quantifies the trade.
//
// Entries live in the same swiss-style partition tables as the locking
// engine (table.go); the per-key OCC version occupies the slot's ver field,
// and a deletion resets it to zero — exactly the "absent" version the
// validation step compares against, preserving the original ABA semantics.
type OCCStore struct {
	parts []occPartition
	exp   *expiryCfg
	delta *deltaCfg
}

// ErrConflict aborts an optimistic transaction whose read set changed
// before commit; Exec retries automatically.
var ErrConflict = errors.New("state: optimistic conflict")

type occPartition struct {
	mu  sync.Mutex
	tab table
	// version counts committed writes to the partition, letting read-only
	// validation skip per-key checks when nothing changed.
	version uint64
}

// NewOCC creates an optimistic store with n partitions (DefaultPartitions
// if n <= 0).
func NewOCC(n int) *OCCStore {
	if n <= 0 {
		n = DefaultPartitions
	}
	s := &OCCStore{parts: make([]occPartition, n)}
	for i := range s.parts {
		s.parts[i].tab.init(minTableCap)
	}
	return s
}

// NumPartitions reports the partition count.
func (s *OCCStore) NumPartitions() int { return len(s.parts) }

// PartitionOf maps a key to its partition (same mapping as Store).
func (s *OCCStore) PartitionOf(key string) uint16 {
	return partitionOf(key, len(s.parts))
}

// ConfigureExpiry arms flow-state aging (see Expiry). Call once before the
// store sees traffic.
func (s *OCCStore) ConfigureExpiry(e Expiry) {
	cfg := resolveExpiry(e)
	s.exp = cfg
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		p.tab.exp = cfg
		p.mu.Unlock()
	}
}

// ConfigureDelta implements Backend: declare monotonic-counter key classes
// (see the interface doc). Call once before the store sees traffic.
func (s *OCCStore) ConfigureDelta(prefixes []string) {
	s.delta = resolveDelta(prefixes)
}

// CollectExpired implements Backend (see the interface doc); partition
// scanning parallelizes like Store.CollectExpired.
func (s *OCCStore) CollectExpired(now int64, limit int, buf []string) []string {
	if s.exp == nil {
		return buf
	}
	tick := s.exp.ticksAt(now)
	return collectShards(len(s.parts), limit, buf, func(i int, shard []string) []string {
		p := &s.parts[i]
		p.mu.Lock()
		shard = p.tab.collectExpired(tick, limit, shard)
		p.mu.Unlock()
		return shard
	})
}

// Get reads a key outside any transaction.
func (s *OCCStore) Get(key string) ([]byte, bool) {
	out, ok := s.GetAppend(key, nil)
	if !ok {
		return nil, false
	}
	if out == nil {
		out = []byte{}
	}
	return out, true
}

// GetAppend implements Backend: Get with caller-provided storage.
func (s *OCCStore) GetAppend(key string, buf []byte) ([]byte, bool) {
	p := &s.parts[s.PartitionOf(key)]
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.tab.get(key)
	if !ok {
		return buf, false
	}
	return append(buf, v...), true
}

// Len reports the total number of keys.
func (s *OCCStore) Len() int {
	n := 0
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		n += p.tab.live
		p.mu.Unlock()
	}
	return n
}

// Apply installs replicated updates directly (follower path). Values are
// copied into store-owned buffers; the caller keeps ownership of its own.
// Decoded delta updates resolve against the current table value (see
// Store.Apply).
func (s *OCCStore) Apply(updates []Update) {
	now := s.exp.nowTick()
	var scratch [8]byte
	for i := range updates {
		u := &updates[i]
		p := &s.parts[int(u.Partition)%len(s.parts)]
		p.mu.Lock()
		switch {
		case u.Flags&UpdateDelta != 0 && u.Value == nil:
			// Materialize the resolved value into the update so retained
			// logs can re-serve full values (see Store.Apply).
			u.Value = append(make([]byte, 0, 8), resolveDeltaValue(&p.tab, u, &scratch)...)
			si := p.tab.put(u.Key, u.Value, now)
			p.tab.slots[si].ver++
		case u.Value == nil:
			p.tab.del(u.Key)
		default:
			si := p.tab.put(u.Key, u.Value, now)
			p.tab.slots[si].ver++
		}
		p.version++
		p.mu.Unlock()
	}
}

// ApplyOwned is Apply under the historical ownership-transfer contract (see
// Store.ApplyOwned): the table copies values into recycled slot buffers
// either way, so the two are now identical.
func (s *OCCStore) ApplyOwned(updates []Update) { s.Apply(updates) }

// Snapshot captures the store contents for recovery transfer.
func (s *OCCStore) Snapshot() []Update {
	var out []Update
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		p.tab.iterate(func(k string, v []byte) {
			val := make([]byte, len(v))
			copy(val, v)
			out = append(out, Update{Key: k, Value: val, Partition: uint16(i)})
		})
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore replaces the store contents. TTL deadlines restart for restored
// keys (see Store.Restore).
func (s *OCCStore) Restore(updates []Update) {
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		p.tab.init(minTableCap)
		p.mu.Unlock()
	}
	s.Apply(updates)
}

// occTxn is an in-flight optimistic transaction. batch is non-nil when the
// transaction runs inside an occBatch, whose held partition mutexes change
// how reads synchronize (see Get).
type occTxn struct {
	store *OCCStore
	batch *occBatch
	reads map[string]uint64 // key → version observed (0 = absent)
	// writes buffered in program order, deduplicated by key.
	writes   map[string]*Update
	writeLog []*Update
	touched  map[uint16]struct{}
}

func newOCCTxn(s *OCCStore) *occTxn {
	return &occTxn{
		store:   s,
		reads:   make(map[string]uint64),
		writes:  make(map[string]*Update),
		touched: make(map[uint16]struct{}),
	}
}

// Get implements Txn: an unlocked versioned read.
func (t *occTxn) Get(key string) ([]byte, bool, error) {
	pi := t.store.PartitionOf(key)
	t.touched[pi] = struct{}{}
	if w, ok := t.writes[key]; ok { // read-your-writes
		if w.Value == nil {
			return nil, false, nil
		}
		out := make([]byte, len(w.Value))
		copy(out, w.Value)
		return out, true, nil
	}
	p := &t.store.parts[pi]
	// Inside a batch the partition mutex may already be ours (held since the
	// last commit): read without locking. Blocking on a foreign partition
	// while retaining our own would be hold-and-wait — two batches could
	// deadlock — so release everything first; validation at commit covers
	// the reads either way.
	lock := true
	if t.batch != nil {
		if t.batch.holds(pi) {
			lock = false
		} else if len(t.batch.held) > 0 {
			t.batch.Flush()
		}
	}
	if lock {
		p.mu.Lock()
	}
	si := p.tab.getSlot(key)
	var out []byte
	var ver uint64
	if si >= 0 {
		s := &p.tab.slots[si]
		ver = s.ver
		out = make([]byte, len(s.val))
		copy(out, s.val) // copy out while the mutex protects the buffer
		if nt := t.store.exp.nowTick(); nt > 0 {
			p.tab.refresh(si, nt)
		}
	}
	if lock {
		p.mu.Unlock()
	}
	t.reads[key] = ver
	if si < 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// GetKey implements Txn. The read set keeps the key, so it is always a
// heap string here.
func (t *occTxn) GetKey(k Key) ([]byte, bool, error) { return t.Get(k.String()) }

// Put implements Txn: a buffered write.
func (t *occTxn) Put(key string, val []byte) error {
	buf, _ := t.Write(key, len(val))
	copy(buf, val)
	return nil
}

// Write implements Txn: a buffered write whose returned buffer is the
// update's value. It never fails: conflicts surface at commit.
func (t *occTxn) Write(key string, n int) ([]byte, error) {
	v := make([]byte, n)
	t.bufferWrite(key, v)
	return v, nil
}

// Delete implements Txn: a buffered deletion.
func (t *occTxn) Delete(key string) error {
	t.bufferWrite(key, nil)
	return nil
}

// bufferWrite records a write of val (nil deletes), deduplicating by key.
func (t *occTxn) bufferWrite(key string, val []byte) {
	pi := t.store.PartitionOf(key)
	t.touched[pi] = struct{}{}
	if w, ok := t.writes[key]; ok {
		w.Value = val
		return
	}
	u := &Update{Key: key, Value: val, Partition: pi}
	t.writes[key] = u
	t.writeLog = append(t.writeLog, u)
}

// DeleteExpired implements ExpiryTxn: it buffers a deletion only if key is
// still present with an elapsed TTL at now. The versioned read makes a
// racing refresh-and-commit invalidate this transaction at validation.
func (t *occTxn) DeleteExpired(key string, now int64) (bool, error) {
	cfg := t.store.exp
	if cfg == nil {
		return false, nil
	}
	if _, ok := t.writes[key]; ok {
		return false, nil // a buffered write in this txn supersedes expiry
	}
	pi := t.store.PartitionOf(key)
	t.touched[pi] = struct{}{}
	p := &t.store.parts[pi]
	lock := true
	if t.batch != nil {
		if t.batch.holds(pi) {
			lock = false
		} else if len(t.batch.held) > 0 {
			t.batch.Flush()
		}
	}
	if lock {
		p.mu.Lock()
	}
	due := false
	var ver uint64
	if si := p.tab.getSlot(key); si >= 0 {
		ver = p.tab.slots[si].ver
		s := &p.tab.slots[si]
		due = s.exp != 0 && s.exp <= cfg.ticksAt(now)
	}
	if lock {
		p.mu.Unlock()
	}
	t.reads[key] = ver
	if !due {
		return false, nil
	}
	return true, t.Delete(key)
}

// commit validates the read set and installs the writes while holding the
// touched partitions' mutexes (ascending order — no deadlock), running the
// hook at the serialization point.
func (t *occTxn) commit(onCommit func(Result)) (Result, error) {
	parts := make([]uint16, 0, len(t.touched))
	for p := range t.touched {
		parts = append(parts, p)
	}
	sortU16(parts)
	for _, p := range parts {
		t.store.parts[p].mu.Lock()
	}
	unlock := func() {
		for i := len(parts) - 1; i >= 0; i-- {
			t.store.parts[parts[i]].mu.Unlock()
		}
	}
	// Validate: every read key must still be at the observed version.
	for key, ver := range t.reads {
		p := &t.store.parts[t.store.PartitionOf(key)]
		cur := uint64(0)
		if si := p.tab.getSlot(key); si >= 0 {
			cur = p.tab.slots[si].ver
		}
		if cur != ver {
			unlock()
			return Result{}, ErrConflict
		}
	}
	res := Result{ReadOnly: len(t.writeLog) == 0, Touched: parts}
	now := t.store.exp.nowTick()
	for _, u := range t.writeLog {
		p := &t.store.parts[u.Partition]
		if u.Value == nil {
			p.tab.del(u.Key)
		} else {
			// The old value is still installed here: classify before put.
			classifyDelta(t.store.delta, &p.tab, u)
			// u.Value stays exclusively the piggybacked update's; the table
			// keeps its own copy in a recycled slot buffer.
			si := p.tab.put(u.Key, u.Value, now)
			p.tab.slots[si].ver++
		}
		p.version++
		res.Updates = append(res.Updates, *u)
	}
	if onCommit != nil {
		onCommit(res)
	}
	unlock()
	return res, nil
}

// Exec runs fn as an optimistic packet transaction, re-executing it on
// conflicts until it commits or fn fails.
func (s *OCCStore) Exec(fn func(tx Txn) error) (Result, error) {
	return s.ExecWithHook(fn, nil)
}

// ExecWithHook is Exec with a commit hook at the serialization point.
func (s *OCCStore) ExecWithHook(fn func(tx Txn) error, onCommit func(Result)) (Result, error) {
	retries := 0
	for {
		tx := newOCCTxn(s)
		if err := fn(tx); err != nil {
			if errors.Is(err, ErrConflict) {
				retries++
				continue
			}
			return Result{}, err
		}
		res, err := tx.commit(onCommit)
		if errors.Is(err, ErrConflict) {
			retries++
			continue
		}
		res.Retries = retries
		return res, err
	}
}

// compile-time interface checks: both engines satisfy Backend, and both
// transaction types satisfy Txn plus the ExpiryTxn extension.
var (
	_ Backend   = (*Store)(nil)
	_ Backend   = (*OCCStore)(nil)
	_ Txn       = (*lockTxn)(nil)
	_ Txn       = (*occTxn)(nil)
	_ ExpiryTxn = (*lockTxn)(nil)
	_ ExpiryTxn = (*occTxn)(nil)
)
