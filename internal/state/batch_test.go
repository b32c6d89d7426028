package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// batchBackends returns the stores Batch semantics are checked on, keyed
// by subtest name.
func batchBackends(t *testing.T) map[string]Backend {
	t.Helper()
	return map[string]Backend{"2pl": New(8)}
}

// cloneResult deep-copies a Result while it is still valid.
func cloneResult(r Result) Result {
	out := Result{ReadOnly: r.ReadOnly, Touched: append([]uint16(nil), r.Touched...)}
	for _, u := range r.Updates {
		u.Value = append([]byte(nil), u.Value...)
		out.Updates = append(out.Updates, u)
	}
	return out
}

// TestBatchMatchesExec: a batch flushed per transaction (Store.Exec) equals
// one held across a burst (flushed every 4 transactions). The same stream
// of writes, two-key writes and read-only lookups runs both ways, and every
// Result and the final stores must agree. A held batch's Result is valid
// only until its next Exec, so each one is copied the moment it is
// returned.
func TestBatchMatchesExec(t *testing.T) {
	for name := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			mk := func() Backend { return New(8) }
			run := func(exec func(fn func(tx Txn) error) (Result, error), flush func()) []Result {
				var results []Result
				for i := 0; i < 64; i++ {
					key := fmt.Sprintf("k%d", i%7)
					res, err := exec(func(tx Txn) error {
						val, _, err := tx.Get(key)
						if err != nil || i%5 == 4 {
							return err // every fifth transaction only reads
						}
						buf := make([]byte, 8)
						if len(val) == 8 {
							binary.BigEndian.PutUint64(buf, binary.BigEndian.Uint64(val)+uint64(i))
						} else {
							binary.BigEndian.PutUint64(buf, uint64(i))
						}
						if i%3 == 0 {
							if err := tx.Put(fmt.Sprintf("second%d", i%11), buf[:4]); err != nil {
								return err
							}
						}
						return tx.Put(key, buf)
					})
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, cloneResult(res))
					if i%4 == 3 {
						flush()
					}
				}
				flush()
				return results
			}

			plain := mk()
			want := run(plain.Exec, func() {})

			batched := mk()
			b := batched.NewBatch()
			got := run(b.Exec, b.Flush)

			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("transaction %d: batch result %+v, plain result %+v", i, got[i], want[i])
				}
			}
			if plain.Len() != batched.Len() {
				t.Fatalf("len mismatch: plain %d batched %d", plain.Len(), batched.Len())
			}
			for _, u := range plain.Snapshot() {
				got, ok := batched.Get(u.Key)
				if !ok {
					t.Fatalf("key %q missing from batched store", u.Key)
				}
				if !bytes.Equal(got, u.Value) {
					t.Fatalf("key %q: plain %x batched %x", u.Key, u.Value, got)
				}
			}
		})
	}
}

// TestExecResultsCallerOwned: Store.Exec copies its Result out of the
// pooled batch, so a later Exec, here or on another goroutine, leaves an
// earlier Result's Touched and Updates as they were.
func TestExecResultsCallerOwned(t *testing.T) {
	s := New(8)
	put := func(w, i int) func(tx Txn) error {
		return func(tx Txn) error {
			if err := tx.Put(fmt.Sprintf("w%d-a%d", w, i%5), []byte{byte(w), byte(i)}); err != nil {
				return err
			}
			return tx.Put(fmt.Sprintf("w%d-b%d", w, i%3), []byte{byte(i)})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				first, err := s.Exec(put(w, i))
				if err != nil {
					t.Error(err)
					return
				}
				want := cloneResult(first)
				if _, err := s.Exec(put(w, i+1)); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(cloneResult(first), want) {
					t.Errorf("worker %d: first Result changed to %+v, want %+v", w, first, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBatchResultShape checks Updates/Touched/ReadOnly match plain Exec's
// contract: updates in program order, touched sorted ascending.
func TestBatchResultShape(t *testing.T) {
	for name, s := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := s.NewBatch()
			defer b.Flush()
			res, err := b.Exec(func(tx Txn) error {
				if err := tx.Put("zz", []byte("1")); err != nil {
					return err
				}
				if err := tx.Put("aa", []byte("2")); err != nil {
					return err
				}
				return tx.Delete("zz")
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Updates) != 2 {
				t.Fatalf("got %d updates, want 2 (deduplicated by key)", len(res.Updates))
			}
			if res.Updates[0].Key != "zz" || res.Updates[0].Value != nil {
				t.Fatalf("update 0 = %+v, want zz deletion in program order", res.Updates[0])
			}
			if res.Updates[1].Key != "aa" {
				t.Fatalf("update 1 = %+v, want aa", res.Updates[1])
			}
			for i := 1; i < len(res.Touched); i++ {
				if res.Touched[i-1] >= res.Touched[i] {
					t.Fatalf("touched not sorted: %v", res.Touched)
				}
			}
			ro, err := b.Exec(func(tx Txn) error {
				_, _, err := tx.Get("aa")
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !ro.ReadOnly {
				t.Fatal("read-only transaction not flagged ReadOnly")
			}
		})
	}
}

// TestBatchHookAtomicity checks the commit hook observes the store with the
// transaction's writes already applied (the serialization point), same as
// plain ExecWithHook.
func TestBatchHookAtomicity(t *testing.T) {
	for name, s := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := s.NewBatch()
			defer b.Flush()
			hooked := false
			_, err := b.ExecWithHook(func(tx Txn) error {
				return tx.Put("k", []byte("v"))
			}, func(res Result) {
				hooked = true
				if len(res.Updates) != 1 || res.Updates[0].Key != "k" {
					t.Errorf("hook saw updates %+v", res.Updates)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !hooked {
				t.Fatal("commit hook not invoked")
			}
		})
	}
}

// TestBatchAbort checks a failing transaction inside a batch leaves no
// trace and the batch stays usable.
func TestBatchAbort(t *testing.T) {
	errBoom := errors.New("boom")
	for name, s := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := s.NewBatch()
			defer b.Flush()
			_, err := b.Exec(func(tx Txn) error {
				if err := tx.Put("k", []byte("doomed")); err != nil {
					return err
				}
				return errBoom
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("got err %v, want boom", err)
			}
			b.Flush() // burst boundary before reading outside the batch
			if _, ok := s.Get("k"); ok {
				t.Fatal("aborted write leaked into the store")
			}
			if _, err := b.Exec(func(tx Txn) error {
				return tx.Put("k", []byte("good"))
			}); err != nil {
				t.Fatal(err)
			}
			b.Flush()
			if v, ok := s.Get("k"); !ok || string(v) != "good" {
				t.Fatalf("post-abort commit lost: %q %v", v, ok)
			}
		})
	}
}

// TestBatchConcurrent hammers one backend from batched and plain workers
// concurrently; every worker increments disjoint-and-shared counters, and
// the final sums must account for every committed increment (serializable
// isolation despite locks retained across transactions).
func TestBatchConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
	)
	for name, s := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			incr := func(tx Txn, key string) error {
				val, _, err := tx.Get(key)
				if err != nil {
					return err
				}
				var cur uint64
				if len(val) == 8 {
					cur = binary.BigEndian.Uint64(val)
				}
				buf := make([]byte, 8)
				binary.BigEndian.PutUint64(buf, cur+1)
				return tx.Put(key, buf)
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					useBatch := w%2 == 0
					var b *Batch
					if useBatch {
						b = s.NewBatch()
					}
					for i := 0; i < rounds; i++ {
						fn := func(tx Txn) error {
							if err := incr(tx, "shared"); err != nil {
								return err
							}
							return incr(tx, fmt.Sprintf("own%d", w))
						}
						var err error
						if useBatch {
							_, err = b.Exec(fn)
							if i%8 == 7 {
								b.Flush()
							}
						} else {
							_, err = s.Exec(fn)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
					if useBatch {
						b.Flush()
					}
				}(w)
			}
			wg.Wait()
			if v, _ := s.Get("shared"); binary.BigEndian.Uint64(v) != workers*rounds {
				t.Fatalf("shared counter = %d, want %d", binary.BigEndian.Uint64(v), workers*rounds)
			}
			for w := 0; w < workers; w++ {
				if v, _ := s.Get(fmt.Sprintf("own%d", w)); binary.BigEndian.Uint64(v) != rounds {
					t.Fatalf("own%d = %d, want %d", w, binary.BigEndian.Uint64(v), rounds)
				}
			}
		})
	}
}

// TestBatchCrossPartitionConcurrent drives two batches whose transactions
// roam across each other's partitions — the hold-and-wait shape that would
// deadlock a naive lock-retaining batch. Completion within the test timeout
// plus correct counts is the assertion.
func TestBatchCrossPartitionConcurrent(t *testing.T) {
	for name, s := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			keys := make([]string, 16) // spread over all 8 partitions
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", i)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					b := s.NewBatch()
					for i := 0; i < 300; i++ {
						a, c := keys[(i+w)%len(keys)], keys[(i*3+w*5)%len(keys)]
						_, err := b.Exec(func(tx Txn) error {
							if _, _, err := tx.Get(a); err != nil {
								return err
							}
							return tx.Put(c, []byte{byte(w)})
						})
						if err != nil {
							t.Error(err)
							return
						}
						if i%16 == 15 {
							b.Flush()
						}
					}
					b.Flush()
				}(w)
			}
			wg.Wait()
			_ = name
		})
	}
}

// TestBatchFlushReleasesLocks checks that after Flush a plain transaction
// can immediately take partitions the batch had retained.
func TestBatchFlushReleasesLocks(t *testing.T) {
	for name, s := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := s.NewBatch()
			if _, err := b.Exec(func(tx Txn) error {
				return tx.Put("k", []byte("v"))
			}); err != nil {
				t.Fatal(err)
			}
			b.Flush()
			done := make(chan error, 1)
			go func() {
				_, err := s.Exec(func(tx Txn) error {
					return tx.Put("k", []byte("w"))
				})
				done <- err
			}()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if v, _ := s.Get("k"); string(v) != "w" {
				t.Fatalf("k = %q after plain exec, want w", v)
			}
		})
	}
}

// TestBatchAutoFlush pins the MaxBatchTxns cap: a batch that commits
// MaxBatchTxns transactions without an explicit Flush must release its
// partition locks on its own, so a jumbo adaptive burst can never starve a
// contending worker for the whole burst. The contender is launched while
// the batch still holds the lock (one short of the cap) and must complete
// after the capping transaction — with no Flush call in sight.
func TestBatchAutoFlush(t *testing.T) {
	for name, s := range batchBackends(t) {
		t.Run(name, func(t *testing.T) {
			b := s.NewBatch()
			exec := func() {
				t.Helper()
				if _, err := b.Exec(func(tx Txn) error {
					return tx.Put("k", []byte("v"))
				}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < MaxBatchTxns-1; i++ {
				exec()
			}
			done := make(chan error, 1)
			go func() {
				_, err := s.Exec(func(tx Txn) error {
					return tx.Put("k", []byte("w"))
				})
				done <- err
			}()
			// One short of the cap the batch still holds the partition: the
			// contender must not get through yet. (A scheduling hiccup here
			// can only delay the contender further, never complete it early,
			// so this cannot flake toward failure.)
			select {
			case <-done:
				t.Fatal("contender committed while the batch held the partition")
			case <-time.After(50 * time.Millisecond):
			}
			exec() // MaxBatchTxns'th commit → auto-flush
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("auto-flush never released the partition locks")
			}
			if v, _ := s.Get("k"); string(v) != "w" {
				t.Fatalf("k = %q after contender, want w", v)
			}
		})
	}
}
