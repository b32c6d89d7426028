package state

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// lockState reads a plock's owner and heir under its mutex.
func lockState(l *plock) (owner, heir *lockTxn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owner, l.heir
}

// waitUntil polls cond until it holds. The deadline only turns a hang into
// a failure; the oracle is cond itself.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

// acquireAsync runs l.acquire(tx) on its own goroutine and delivers the
// result.
func acquireAsync(l *plock, tx *lockTxn) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- l.acquire(tx) }()
	return ch
}

// TestHandoffWounderBeforeRetry: a young owner wounded by an old waiter
// releases and at once re-requests the partition, as a wounded batch
// holder's retry does. The free lock is reserved for the wounder, so the
// retry must block until the old transaction has owned and released it.
func TestHandoffWounderBeforeRetry(t *testing.T) {
	s := New(8)
	l := &s.parts[0].lock
	old, young := newTxn(s, 1), newTxn(s, 2)
	if err := l.acquire(young); err != nil {
		t.Fatal(err)
	}
	oldDone := make(chan struct{})
	go func() {
		if err := l.acquire(old); err != nil {
			t.Error(err)
		}
		l.unlock(old)
		close(oldDone)
	}()
	waitUntil(t, "the old waiter wounds the owner", young.isWounded)

	l.unlock(young)
	retry := newTxn(s, young.ts) // Exec's retry keeps the timestamp
	if err := l.acquire(retry); err != nil {
		t.Fatal(err)
	}
	select {
	case <-oldDone:
	default:
		t.Fatal("the wounded owner's retry took the lock before its wounder had it")
	}
	if owner, heir := lockState(l); owner != retry || heir != nil {
		t.Fatalf("owner=%p heir=%p, want the retry and no reservation", owner, heir)
	}
	l.unlock(retry)
}

// TestHandoffWoundedHeirWakesWaiters: a heir wounded while the lock is free
// drops its reservation and must wake the waiters it held back, or they
// sleep until some unrelated acquire arrives. The window between an unlock
// and the heir's re-entry is a race in real runs, so the test sets the
// reservation on the free lock directly to stand in for it.
func TestHandoffWoundedHeirWakesWaiters(t *testing.T) {
	s := New(8)
	l := &s.parts[0].lock
	heir, younger := newTxn(s, 1), newTxn(s, 2)
	l.mu.Lock()
	l.heir = heir
	l.mu.Unlock()

	got := acquireAsync(l, younger)
	waitUntil(t, "the younger transaction parks behind the reservation", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.release != nil
	})
	if owner, _ := lockState(l); owner != nil {
		t.Fatal("a transaction younger than the heir took the reserved lock")
	}

	heir.wound()
	if err := l.acquire(heir); err != ErrWounded {
		t.Fatalf("wounded heir: acquire = %v, want ErrWounded", err)
	}
	waitUntil(t, "the younger transaction owns the lock", func() bool {
		owner, _ := lockState(l)
		return owner == younger
	})
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if _, h := lockState(l); h != nil {
		t.Fatal("orphan reservation left after the heir's abort")
	}
	l.unlock(younger)
}

// TestHandoffOlderThanHeir: a reservation holds back only transactions
// younger than the heir. An older one takes the free lock directly and
// leaves the reservation in place for the heir.
func TestHandoffOlderThanHeir(t *testing.T) {
	s := New(8)
	l := &s.parts[0].lock
	older, heir := newTxn(s, 1), newTxn(s, 2)
	l.mu.Lock()
	l.heir = heir
	l.mu.Unlock()

	select {
	case err := <-acquireAsync(l, older):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a transaction older than the heir waited on the free lock")
	}
	if owner, h := lockState(l); owner != older || h != heir {
		t.Fatalf("owner=%p heir=%p, want the older transaction and the kept reservation", owner, h)
	}
	l.unlock(older)
	if err := l.acquire(heir); err != nil {
		t.Fatal(err)
	}
	if owner, h := lockState(l); owner != heir || h != nil {
		t.Fatalf("owner=%p heir=%p, want the heir and no reservation", owner, h)
	}
	l.unlock(heir)
}

// TestBatchFlowSetupContention is MazuNAT's flow setup on two workers: every
// transaction bumps the same two chain-wide counters. Each worker runs its
// bursts through its own batch, which holds the counters' partitions until
// Flush; the Gosched before each Flush stands in for the flush's sends.
// Without the wound hand-off, a wounded batch's immediate retry re-took the
// free partition before its wounder woke, and the two looped: 8–19 retries
// per transaction on 2 CPUs, 25–31 at -cpu 1, 0.9 under -race. With it,
// every mode measured at most 0.03 (2 vCPUs). The bound of 0.1 is a retry
// count, so it depends on scheduling; it sits 3× above the worst reading
// with the hand-off and 9× below the best reading without it.
func TestBatchFlowSetupContention(t *testing.T) {
	const workers, bursts, burst = 2, 200, 32
	s := New(64)
	bump := func(tx Txn, key string) error {
		v, _, err := tx.Get(key)
		if err != nil {
			return err
		}
		var n uint64
		if len(v) == 8 {
			n = binary.BigEndian.Uint64(v)
		}
		buf, err := tx.Write(key, 8)
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint64(buf, n+1)
		return nil
	}
	var wg sync.WaitGroup
	retries := make([]int, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := s.NewBatch()
			for i := range bursts {
				for j := range burst {
					flow := fmt.Sprintf("%d/%d/%d", w, i, j)
					res, err := b.Exec(func(tx Txn) error {
						// Like MazuNAT, look the binding up first: a miss.
						if _, _, err := tx.Get("mnat:f:" + flow); err != nil {
							return err
						}
						if err := bump(tx, "mnat:nextport"); err != nil {
							return err
						}
						if err := tx.Put("mnat:f:"+flow, []byte{1}); err != nil {
							return err
						}
						if err := tx.Put("mnat:r:"+flow, []byte{2}); err != nil {
							return err
						}
						return bump(tx, "mnat:flows")
					})
					if err != nil {
						t.Error(err)
						return
					}
					retries[w] += res.Retries
				}
				runtime.Gosched()
				b.Flush()
			}
		}()
	}
	wg.Wait()
	for _, k := range []string{"mnat:nextport", "mnat:flows"} {
		v, _ := s.Get(k)
		if got := binary.BigEndian.Uint64(v); got != workers*bursts*burst {
			t.Fatalf("%s = %d, want %d", k, got, workers*bursts*burst)
		}
	}
	total := retries[0] + retries[1]
	per := float64(total) / float64(workers*bursts*burst)
	t.Logf("retries: %d (%.3f per transaction)", total, per)
	if per > 0.1 {
		t.Fatalf("%.2f retries per flow setup, want ≤ 0.1: wound-wait is livelocking", per)
	}
}
