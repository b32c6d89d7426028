package state

import (
	"sync"
)

// plock is a wound-wait transaction lock guarding one state partition.
//
// Wound-wait (as in the paper's §4.2, and classically Rosenkrantz et al.):
// when transaction T requests a lock held by U,
//   - if T is older (smaller timestamp), T *wounds* U — U aborts at its next
//     operation (or immediately if it is waiting) and T waits for release;
//   - if T is younger, T waits.
//
// A wound also makes T the lock's heir: once U lets go, the free lock goes
// only to T or to a transaction older than T, so U's retry cannot take it
// back before T has woken (the re-take, wound, re-take livelock). T drops
// the reservation on every way out of acquire.
//
// Every wait, on an owner or on a heir, is on an older transaction, and a
// timestamp changes only while its transaction holds no lock and waits on
// none (a batch refreshes it at Flush), so the waits-for graph is acyclic
// and deadlock is impossible; wounded transactions retry with their
// original timestamp, so they eventually become oldest and win (no
// starvation).
type plock struct {
	mu    sync.Mutex
	owner *lockTxn
	heir  *lockTxn // reserved by a wound; set only while heir is in acquire
	// release is what waiters park on: created under mu by the first waiter,
	// closed and cleared by whatever may let one of them in (an unlock, a
	// dropped reservation). nil while nobody waits, so an uncontended
	// lock/unlock pair allocates nothing.
	release chan struct{}
}

// acquire takes the lock for t, blocking as needed. Returns ErrWounded if t
// was wounded while waiting.
func (l *plock) acquire(t *lockTxn) error {
	for {
		l.mu.Lock()
		if t.isWounded() {
			if l.heir == t {
				l.heir = nil
				if l.owner == nil {
					l.wake() // waiters held back by the reservation
				}
			}
			l.mu.Unlock()
			return ErrWounded
		}
		if l.owner == t {
			l.mu.Unlock()
			return nil
		}
		if l.owner == nil && (l.heir == nil || t.ts <= l.heir.ts) {
			l.owner = t
			if l.heir == t {
				l.heir = nil
			}
			l.mu.Unlock()
			return nil
		}
		if l.owner != nil && t.ts < l.owner.ts {
			l.owner.wound()
			if l.heir == nil || t.ts < l.heir.ts {
				l.heir = t
			}
		}
		if l.release == nil {
			l.release = make(chan struct{})
		}
		ch := l.release
		l.mu.Unlock()
		select {
		case <-ch:
		case <-t.woundChan(): // the loop top drops t's reservation
		}
	}
}

// unlock releases the lock if t owns it and wakes all waiters.
func (l *plock) unlock(t *lockTxn) {
	l.mu.Lock()
	if l.owner == t {
		l.owner = nil
		l.wake()
	}
	l.mu.Unlock()
}

// wake releases every parked waiter to re-check the lock. Called with mu
// held.
func (l *plock) wake() {
	if l.release != nil {
		close(l.release)
		l.release = nil
	}
}

// lockTxn is a wound-wait lock holder: the identity under which a Batch
// takes partition locks. It carries the timestamp that orders it against
// other holders, its wound state, and the partitions it holds. Not safe for
// concurrent use by multiple goroutines: a batch belongs to one worker.
//
// Transactions hold only a handful of partitions, so the held set is a
// small slice (a linear scan beats a map), and the wound channel only
// materializes when a waiter or wounder needs it.
type lockTxn struct {
	store *Store
	ts    uint64

	woundMu sync.Mutex
	wounded bool
	woundCh chan struct{} // lazy: created by the first waiter or wound
	held    []uint16      // partitions locked
	heldArr [4]uint16     // inline backing for held
}

func newTxn(s *Store, ts uint64) *lockTxn {
	t := &lockTxn{store: s, ts: ts}
	t.held = t.heldArr[:0]
	return t
}

func (t *lockTxn) wound() {
	t.woundMu.Lock()
	if !t.wounded {
		t.wounded = true
		if t.woundCh != nil {
			close(t.woundCh)
		}
	}
	t.woundMu.Unlock()
}

func (t *lockTxn) isWounded() bool {
	t.woundMu.Lock()
	defer t.woundMu.Unlock()
	return t.wounded
}

// woundChan returns the channel a lock waiter selects on; it is closed (or
// already closed) once the transaction is wounded.
func (t *lockTxn) woundChan() chan struct{} {
	t.woundMu.Lock()
	if t.woundCh == nil {
		t.woundCh = make(chan struct{})
		if t.wounded {
			close(t.woundCh)
		}
	}
	ch := t.woundCh
	t.woundMu.Unlock()
	return ch
}

// lock acquires partition p unless t already holds it.
func (t *lockTxn) lock(p uint16) error {
	for _, h := range t.held {
		if h == p {
			return nil
		}
	}
	if err := t.store.parts[p].lock.acquire(t); err != nil {
		return err
	}
	t.held = append(t.held, p)
	return nil
}

// release unlocks every partition t holds and clears its wound. Once the
// locks are gone no acquire can wound t (wounds happen under the plock
// mutex that unlock also takes), so the reset cannot lose one.
func (t *lockTxn) release() {
	for _, p := range t.held {
		t.store.parts[p].lock.unlock(t)
	}
	t.held = t.heldArr[:0]
	t.woundMu.Lock()
	t.wounded = false
	t.woundCh = nil
	t.woundMu.Unlock()
}

func sortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
