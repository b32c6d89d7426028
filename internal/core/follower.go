package core

import (
	"sync"

	"github.com/ftsfc/ftc/internal/state"
)

// Follower is a replica of a middlebox's state at one of the f succeeding
// servers in its replication group (§5). It applies piggybacked state
// updates in dependency-vector order, keeps the MAX vector of what it has
// replicated in order, and buffers applied logs so it can serve repair
// requests from its own successor.
//
// Non-dependent transactions apply concurrently: a log only locks the
// partitions its vector names, so worker threads replicating disjoint
// transactions proceed in parallel (§4.3's multithreaded replication).
type Follower struct {
	mb    uint16
	store state.Backend
	buf   *logBuffer

	locks []sync.Mutex // per-partition apply locks; max[p] is guarded by locks[p]
	max   []uint64
}

// ApplyOutcome reports what Apply did with a log.
type ApplyOutcome int

// Apply outcomes.
const (
	// Applied: the log was in order; updates installed, MAX advanced.
	Applied ApplyOutcome = iota
	// Duplicate: the log had already been applied (repair or recovery replay).
	Duplicate
	// Blocked: prior logs are missing; the caller parks the log (the
	// replica's pending set) or drops it, and repair fills the gap.
	Blocked
	// Partial: a coalesced run installed some partitions, and MAX advanced
	// there, but is behind on others. The caller holds the log as if
	// Blocked; a retry installs only what is left.
	Partial
)

// took reports whether the apply took the log, whole or in part: a caller
// that resumes or replays on progress counts both.
func (o ApplyOutcome) took() bool { return o == Applied || o == Partial }

// NewFollower creates a follower replica for middlebox mb.
func NewFollower(mb uint16, store state.Backend) *Follower {
	return &Follower{
		mb:    mb,
		store: store,
		buf:   newLogBuffer(),
		locks: make([]sync.Mutex, store.NumPartitions()),
		max:   make([]uint64, store.NumPartitions()),
	}
}

// MB returns the middlebox index this follower replicates.
func (f *Follower) MB() uint16 { return f.mb }

// Store returns the replica state store.
func (f *Follower) Store() state.Backend { return f.store }

// Buffer returns the follower's retransmission buffer.
func (f *Follower) Buffer() *logBuffer { return f.buf }

// lockVec acquires the apply locks for every partition in v (ascending, so
// concurrent Apply calls cannot deadlock).
func (f *Follower) lockVec(v SparseVec) {
	for _, e := range v {
		f.locks[e.Part].Lock()
	}
}

func (f *Follower) unlockVec(v SparseVec) {
	for _, e := range v {
		f.locks[e.Part].Unlock()
	}
}

// Apply attempts to apply one piggyback log. It never blocks: a log whose
// dependencies are unmet returns Blocked and the caller decides what holds it.
func (f *Follower) Apply(l Log) ApplyOutcome { return f.apply(l, nil) }

// apply is Apply with an optional retransmission-buffer sink: when sink is
// non-nil, an installed log's retained copy is appended to *sink instead of
// the buffer, so burst workers can append a whole burst's logs under one
// buffer lock at the flush. MAX still advances here, atomically with the
// install — only the buffer append is deferred (repair requests racing the
// deferral retry within RepairEvery).
func (f *Follower) apply(l Log, sink *[]Log) ApplyOutcome {
	if len(l.Vec) == 0 {
		return Applied // touched nothing; nothing to order or install
	}
	f.lockVec(l.Vec)
	defer f.unlockVec(l.Vec)
	if l.Coalesced() {
		return f.applyCoalescedLocked(l, sink)
	}
	if l.Vec.SupersededBy(f.max) {
		return Duplicate
	}
	if !l.Vec.SatisfiedBy(f.max) {
		return Blocked
	}
	if l.Noop() {
		return Applied // dependencies met; nothing to install or advance
	}
	if l.Vec.SupersededByAny(f.max) {
		// Partially ahead can only mean a duplicate racing recovery state;
		// installing again would be idempotent but advancing is not needed.
		return Duplicate
	}
	// The decoder hands each update a freshly allocated value that nothing
	// mutates afterwards, so the store takes ownership instead of copying.
	f.store.ApplyOwned(l.Updates)
	l.Vec.AdvanceInto(f.max)
	// The log's Vec/Updates arrays may live in a per-worker decode scratch;
	// clone them before the retransmission buffer outlives the packet.
	if sink != nil {
		*sink = append(*sink, l.Retain())
	} else {
		f.buf.add(l.Retain())
	}
	return Applied
}

// applyCoalescedLocked installs a burst-coalesced log (apply locks held).
// Vec holds the run's last sequence per partition and Base its first.
//
// Each partition applies INDEPENDENTLY: a run is an encoding artifact, not
// a transaction — the protocol's ordering constraint is per partition (the
// dependency vectors define nothing stronger), and a run's per-key updates
// are themselves per partition. Demanding the whole run apply atomically
// deadlocks: two workers' concurrently open runs can interleave on
// different partitions in opposite orders (run A covers part p before run
// C but part q after it), leaving each run waiting on the other's base.
// Per-partition application makes progress on every delivery. A run left
// behind on some partition returns Partial, and its frame waits until a
// retry installs the rest: a partition already past the run is skipped,
// so the retry is idempotent. The run enters the retransmission buffer
// once, on the apply that installs its first partition.
//
// A partition whose MAX lands strictly inside the run (a recovery snapshot
// already holds a prefix of the run's writes — the head's vector advances
// per transaction, not per run) still applies when the updates carry full
// values: re-installing last-writer values is idempotent. A delta update
// would double-count there, so such a partition waits for the full-value
// form that repair serves from the predecessor's buffer.
func (f *Follower) applyCoalescedLocked(l Log, sink *[]Log) ApplyOutcome {
	var upds []state.Update
	applied, behind, past := false, false, false
	for i := range l.Vec {
		p, end, base := l.Vec[i].Part, l.Vec[i].Seq, l.Base[i].Seq
		switch {
		case f.max[p] > end:
			past = true // this partition already past the run
			continue
		case f.max[p] < base:
			behind = true // earlier logs missing; a retry installs it
			continue
		case f.max[p] > base:
			// Mid-run: only idempotent full values may re-install.
			delta := false
			for j := range l.Updates {
				u := &l.Updates[j]
				if u.Partition == p && u.Value == nil && u.Flags&state.UpdateDelta != 0 {
					delta = true
					break
				}
			}
			if delta {
				behind = true
				continue
			}
		}
		for j := range l.Updates {
			if l.Updates[j].Partition == p {
				upds = append(upds, l.Updates[j])
			}
		}
		f.max[p] = end + 1
		applied = true
	}
	if !applied {
		if behind {
			return Blocked
		}
		return Duplicate
	}
	f.store.ApplyOwned(upds)
	if !past { // the run's first install; a retry's run is buffered already
		if sink != nil {
			*sink = append(*sink, l.Retain())
		} else {
			f.buf.add(l.Retain())
		}
	}
	if behind {
		return Partial
	}
	return Applied
}

// SupersededByAny reports whether any touched partition is already ahead.
func (v SparseVec) SupersededByAny(max []uint64) bool {
	for _, e := range v {
		if int(e.Part) < len(max) && max[e.Part] > e.Seq {
			return true
		}
	}
	return false
}

// lockAll takes every apply lock, ascending like lockVec; unlockAll
// releases them in reverse.
func (f *Follower) lockAll() {
	for i := range f.locks {
		f.locks[i].Lock()
	}
}

func (f *Follower) unlockAll() {
	for i := len(f.locks) - 1; i >= 0; i-- {
		f.locks[i].Unlock()
	}
}

// Max snapshots the follower's MAX dependency vector.
func (f *Follower) Max() []uint64 {
	f.lockAll()
	defer f.unlockAll()
	return CloneDense(f.max)
}

// appendMax is Max in sparse form, appended to dst under the same locks:
// the tail's commit dissemination needs no dense clone.
func (f *Follower) appendMax(dst SparseVec) SparseVec {
	f.lockAll()
	defer f.unlockAll()
	return AppendSparse(dst, f.max)
}

// Fetch atomically snapshots the follower's MAX vector, retransmission
// buffer and store under all apply locks. Recovery must ship a consistent
// cut: a MAX torn against the snapshot would make a delta update, or a
// multi-partition log racing the copy, double-apply or vanish at the
// recovered replica.
func (f *Follower) Fetch() (max []uint64, logs []Log, snap []state.Update) {
	f.lockAll()
	defer f.unlockAll()
	return CloneDense(f.max), f.buf.all(), f.store.Snapshot()
}

// RestoreMax installs a MAX vector (recovery initialization).
func (f *Follower) RestoreMax(v []uint64) {
	f.lockAll()
	defer f.unlockAll()
	for i := range f.max {
		if i < len(v) {
			f.max[i] = v[i]
		} else {
			f.max[i] = 0
		}
	}
}

// Prune drops buffered logs covered by the commit vector.
func (f *Follower) Prune(commit []uint64) { f.buf.Prune(commit) }

// Missing returns buffered logs a peer with the given MAX still needs.
func (f *Follower) Missing(max []uint64) []Log { return f.buf.Missing(max) }
