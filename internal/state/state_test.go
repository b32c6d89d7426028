package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestGetPutBasic(t *testing.T) {
	s := New(8)
	res, err := s.Exec(func(tx Txn) error {
		return tx.Put("k", []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadOnly || len(res.Updates) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Updates[0].Key != "k" || string(res.Updates[0].Value) != "v" {
		t.Fatalf("update = %+v", res.Updates[0])
	}
	v, ok := s.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("get = %q %v", v, ok)
	}
}

func TestReadYourWrites(t *testing.T) {
	s := New(8)
	_, err := s.Exec(func(tx Txn) error {
		if err := tx.Put("k", []byte("new")); err != nil {
			return err
		}
		v, ok, err := tx.Get("k")
		if err != nil {
			return err
		}
		if !ok || string(v) != "new" {
			return fmt.Errorf("read-your-writes failed: %q %v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	s := New(8)
	s.Exec(func(tx Txn) error { return tx.Put("k", []byte("v")) })
	res, err := s.Exec(func(tx Txn) error {
		if err := tx.Delete("k"); err != nil {
			return err
		}
		if _, ok, _ := tx.Get("k"); ok {
			return errors.New("deleted key visible in txn")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 1 || res.Updates[0].Value != nil {
		t.Fatalf("delete update = %+v", res.Updates)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("key still present after delete")
	}
}

func TestAbortHasNoEffects(t *testing.T) {
	s := New(8)
	_, err := s.Exec(func(tx Txn) error {
		tx.Put("k", []byte("v"))
		return ErrAbort
	})
	if !errors.Is(err, ErrAbort) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("aborted write visible")
	}
}

func TestReadOnlyResult(t *testing.T) {
	s := New(8)
	s.Exec(func(tx Txn) error { return tx.Put("k", []byte("v")) })
	res, err := s.Exec(func(tx Txn) error {
		_, _, err := tx.Get("k")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReadOnly || len(res.Updates) != 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Touched) != 1 {
		t.Fatalf("touched = %v", res.Touched)
	}
}

func TestTouchedPartitionsSorted(t *testing.T) {
	s := New(64)
	res, err := s.Exec(func(tx Txn) error {
		for i := 0; i < 20; i++ {
			if err := tx.Put(fmt.Sprintf("key-%d", i), []byte("x")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Touched); i++ {
		if res.Touched[i] <= res.Touched[i-1] {
			t.Fatalf("touched not strictly ascending: %v", res.Touched)
		}
	}
}

func TestOverwriteWithinTxnProducesOneUpdate(t *testing.T) {
	s := New(8)
	res, _ := s.Exec(func(tx Txn) error {
		tx.Put("k", []byte("a"))
		tx.Put("k", []byte("b"))
		return nil
	})
	if len(res.Updates) != 1 || string(res.Updates[0].Value) != "b" {
		t.Fatalf("updates = %+v", res.Updates)
	}
}

func TestPartitionOfStableAndInRange(t *testing.T) {
	s := New(16)
	s2 := New(16)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		p := s.PartitionOf(k)
		if p != s2.PartitionOf(k) {
			t.Fatal("partitioning not deterministic across stores")
		}
		if int(p) >= 16 {
			t.Fatalf("partition %d out of range", p)
		}
	}
}

func TestUpdatesCarryCorrectPartition(t *testing.T) {
	s := New(32)
	res, _ := s.Exec(func(tx Txn) error { return tx.Put("abc", []byte("v")) })
	if res.Updates[0].Partition != s.PartitionOf("abc") {
		t.Fatal("update partition mismatch")
	}
}

func TestApplyAndSnapshotRestore(t *testing.T) {
	s := New(16)
	s.Apply([]Update{
		{Key: "a", Value: []byte("1"), Partition: s.PartitionOf("a")},
		{Key: "b", Value: []byte("2"), Partition: s.PartitionOf("b")},
	})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	s2 := New(16)
	s2.Apply([]Update{{Key: "junk", Value: []byte("x"), Partition: 0}})
	s2.Restore(snap)
	if s2.Len() != 2 {
		t.Fatalf("restored len = %d", s2.Len())
	}
	if v, ok := s2.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("restored a = %q %v", v, ok)
	}
	if _, ok := s2.Get("junk"); ok {
		t.Fatal("restore did not clear old contents")
	}
}

func TestApplyDelete(t *testing.T) {
	s := New(8)
	s.Apply([]Update{{Key: "a", Value: []byte("1"), Partition: s.PartitionOf("a")}})
	s.Apply([]Update{{Key: "a", Value: nil, Partition: s.PartitionOf("a")}})
	if _, ok := s.Get("a"); ok {
		t.Fatal("apply delete failed")
	}
}

func TestGetCopies(t *testing.T) {
	s := New(8)
	s.Exec(func(tx Txn) error { return tx.Put("k", []byte("abc")) })
	v, _ := s.Get("k")
	v[0] = 'X'
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get returned aliased buffer")
	}
}

func TestTxnGetCopies(t *testing.T) {
	s := New(8)
	s.Exec(func(tx Txn) error { return tx.Put("k", []byte("abc")) })
	s.Exec(func(tx Txn) error {
		v, _, _ := tx.Get("k")
		v[0] = 'X'
		return nil
	})
	if v, _ := s.Get("k"); string(v) != "abc" {
		t.Fatal("txn Get returned aliased buffer")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New(8)
	buf := []byte("abc")
	s.Exec(func(tx Txn) error { return tx.Put("k", buf) })
	buf[0] = 'X'
	if v, _ := s.Get("k"); string(v) != "abc" {
		t.Fatal("Put aliased caller buffer")
	}
}

// TestConcurrentCounterSerializable: N goroutines increment a shared counter
// through transactions; the final value must be exactly N*iters. This is the
// paper's canonical shared-state middlebox pattern (Monitor, sharing level n).
func TestConcurrentCounterSerializable(t *testing.T) {
	s := New(64)
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, err := s.Exec(func(tx Txn) error {
					v, _, err := tx.Get("ctr")
					if err != nil {
						return err
					}
					var n uint64
					if v != nil {
						n = binary.BigEndian.Uint64(v)
					}
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], n+1)
					return tx.Put("ctr", b[:])
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := s.Get("ctr")
	if got := binary.BigEndian.Uint64(v); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
}

// TestOppositeOrderNoDeadlock drives two transaction classes that acquire
// two partitions in opposite orders — the classic deadlock — and relies on
// wound-wait to resolve it.
func TestOppositeOrderNoDeadlock(t *testing.T) {
	s := New(64)
	// Find two keys in distinct partitions.
	k1, k2 := "alpha", ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("beta-%d", i)
		if s.PartitionOf(k) != s.PartitionOf(k1) {
			k2 = k
			break
		}
	}
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				a, b := k1, k2
				if w%2 == 1 {
					a, b = b, a
				}
				for i := 0; i < 300; i++ {
					_, err := s.Exec(func(tx Txn) error {
						if _, _, err := tx.Get(a); err != nil {
							return err
						}
						return tx.Put(b, []byte{byte(i)})
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: opposite-order transactions did not finish")
	}
}

// TestWoundWaitRetries verifies that contention actually produces retries
// and that retried transactions still commit exactly once.
func TestWoundWaitRetries(t *testing.T) {
	s := New(4)
	var retries int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res, err := s.Exec(func(tx Txn) error {
					// Touch several partitions to force conflicts.
					var n uint64
					for j := 0; j < 4; j++ {
						v, _, err := tx.Get(fmt.Sprintf("k%d", j))
						if err != nil {
							return err
						}
						if j == 0 && v != nil {
							n = binary.BigEndian.Uint64(v)
						}
					}
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], n+1)
					return tx.Put("k0", b[:])
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				retries += res.Retries
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.Logf("total retries under contention: %d", retries)
	v, _ := s.Get("k0")
	if got := binary.BigEndian.Uint64(v); got != 8*200 {
		t.Fatalf("k0 = %d, want %d: a retried transaction committed other than once", got, 8*200)
	}
}

// TestSerializabilityBankTransfer checks the classic invariant: concurrent
// transfers between two accounts preserve the total balance.
func TestSerializabilityBankTransfer(t *testing.T) {
	s := New(64)
	put := func(tx Txn, k string, v int64) error {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		return tx.Put(k, b[:])
	}
	get := func(tx Txn, k string) (int64, error) {
		v, ok, err := tx.Get(k)
		if err != nil || !ok {
			return 0, err
		}
		return int64(binary.BigEndian.Uint64(v)), nil
	}
	s.Exec(func(tx Txn) error {
		if err := put(tx, "acct-a", 1000); err != nil {
			return err
		}
		return put(tx, "acct-b", 1000)
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src, dst := "acct-a", "acct-b"
				if w%2 == 0 {
					src, dst = dst, src
				}
				_, err := s.Exec(func(tx Txn) error {
					sv, err := get(tx, src)
					if err != nil {
						return err
					}
					dv, err := get(tx, dst)
					if err != nil {
						return err
					}
					if err := put(tx, src, sv-1); err != nil {
						return err
					}
					return put(tx, dst, dv+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	s.Exec(func(tx Txn) error {
		a, _ := get(tx, "acct-a")
		b, _ := get(tx, "acct-b")
		total = a + b
		return nil
	})
	if total != 2000 {
		t.Fatalf("total = %d, want 2000 (serializability violated)", total)
	}
}

func TestDisjointPartitionsRunConcurrently(t *testing.T) {
	s := New(64)
	k1 := "p-one"
	k2 := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("p-two-%d", i)
		if s.PartitionOf(k) != s.PartitionOf(k1) {
			k2 = k
			break
		}
	}
	// Txn A holds k1's partition and waits for a signal; txn B on k2's
	// partition must complete meanwhile (no global lock).
	aIn, bDone := make(chan struct{}), make(chan struct{})
	go s.Exec(func(tx Txn) error {
		if err := tx.Put(k1, []byte("a")); err != nil {
			return err
		}
		close(aIn)
		select {
		case <-bDone:
		case <-time.After(10 * time.Second):
			t.Error("txn B blocked behind disjoint txn A")
		}
		return nil
	})
	<-aIn
	if _, err := s.Exec(func(tx Txn) error { return tx.Put(k2, []byte("b")) }); err != nil {
		t.Fatal(err)
	}
	close(bDone)
}

func TestExecWithHookRunsAtCommit(t *testing.T) {
	s := New(8)
	var hooked Result
	_, err := s.ExecWithHook(func(tx Txn) error {
		return tx.Put("k", []byte("v"))
	}, func(r Result) { hooked = r })
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked.Updates) != 1 || hooked.ReadOnly {
		t.Fatalf("hook result = %+v", hooked)
	}
}

func TestHookNotCalledOnAbort(t *testing.T) {
	s := New(8)
	called := false
	s.ExecWithHook(func(tx Txn) error {
		tx.Put("k", []byte("v"))
		return ErrAbort
	}, func(Result) { called = true })
	if called {
		t.Fatal("hook ran for aborted transaction")
	}
}

func TestSnapshotSorted(t *testing.T) {
	s := New(8)
	for _, k := range []string{"zz", "aa", "mm"} {
		s.Apply([]Update{{Key: k, Value: []byte("v"), Partition: s.PartitionOf(k)}})
	}
	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Key < snap[i-1].Key {
			t.Fatal("snapshot not sorted")
		}
	}
}

func TestDefaultPartitions(t *testing.T) {
	if New(0).NumPartitions() != DefaultPartitions {
		t.Fatal("default partitions not applied")
	}
	if New(-5).NumPartitions() != DefaultPartitions {
		t.Fatal("negative partitions not defaulted")
	}
}

// Property: a random batch of puts/deletes applied through transactions
// matches a plain map applied sequentially.
func TestQuickTxnMatchesMap(t *testing.T) {
	type op struct {
		Key byte
		Val []byte
		Del bool
	}
	f := func(ops []op) bool {
		s := New(16)
		model := map[string][]byte{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%16)
			_, err := s.Exec(func(tx Txn) error {
				if o.Del {
					return tx.Delete(k)
				}
				return tx.Put(k, o.Val)
			})
			if err != nil {
				return false
			}
			if o.Del {
				delete(model, k)
			} else {
				model[k] = append([]byte(nil), o.Val...)
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := s.Get(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore round-trips arbitrary contents.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(keys []byte, val []byte) bool {
		s := New(8)
		for _, k := range keys {
			key := fmt.Sprintf("k%d", k)
			s.Apply([]Update{{Key: key, Value: val, Partition: s.PartitionOf(key)}})
		}
		s2 := New(8)
		s2.Restore(s.Snapshot())
		if s2.Len() != s.Len() {
			return false
		}
		for _, k := range keys {
			key := fmt.Sprintf("k%d", k)
			a, okA := s.Get(key)
			b, okB := s2.Get(key)
			if okA != okB || !bytes.Equal(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTxnSingleWrite(b *testing.B) {
	s := New(64)
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Exec(func(tx Txn) error { return tx.Put("flow", val) })
	}
}

func BenchmarkTxnReadMostly(b *testing.B) {
	s := New(64)
	s.Exec(func(tx Txn) error { return tx.Put("flow", []byte("v")) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Exec(func(tx Txn) error {
			_, _, err := tx.Get("flow")
			return err
		})
	}
}

func BenchmarkTxnContended8(b *testing.B) {
	s := New(64)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Exec(func(tx Txn) error {
				v, _, err := tx.Get("shared")
				if err != nil {
					return err
				}
				return tx.Put("shared", append(v[:0:0], 'x'))
			})
		}
	})
}
