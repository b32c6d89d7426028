package state

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeRig runs packet transactions one way — plain Exec or a batch — on
// the wound-wait store.
type writeRig struct {
	Backend
	exec  func(fn func(tx Txn) error, onCommit func(Result)) (Result, error)
	flush func() // releases what a batch holds between transactions
}

// committed returns key's committed value, failing if it is absent.
func (r writeRig) committed(t *testing.T, key string) string {
	t.Helper()
	r.flush()
	v, ok := r.Get(key)
	if !ok {
		t.Fatalf("%q not committed", key)
	}
	return string(v)
}

type writeEngine struct {
	name string
	new  func() writeRig
}

func writeEngines() []writeEngine {
	plain := func(s Backend) writeRig { return writeRig{s, s.ExecWithHook, func() {}} }
	batched := func(s Backend) writeRig {
		b := s.NewBatch()
		return writeRig{s, b.ExecWithHook, b.Flush}
	}
	return []writeEngine{
		{"exec-2pl", func() writeRig { return plain(New(8)) }},
		{"batch-2pl", func() writeRig { return batched(New(8)) }},
	}
}

// TestWriteCommitsCallerBytes: the bytes in Write's buffer when the body
// returns are what commits — to the store and to the replicated update —
// both ways, and they are visible to the transaction's own reads.
func TestWriteCommitsCallerBytes(t *testing.T) {
	for _, e := range writeEngines() {
		t.Run(e.name, func(t *testing.T) {
			r := e.new()
			_, err := r.exec(func(tx Txn) error {
				buf, err := tx.Write("k", 4)
				if err != nil {
					return err
				}
				if !bytes.Equal(buf, make([]byte, 4)) {
					t.Errorf("fresh Write buffer = %x, want zeros", buf)
				}
				// Read-your-writes sees the buffer as filled so far.
				copy(buf, "ab")
				if v, ok, err := tx.Get("k"); err != nil || !ok || string(v) != "ab\x00\x00" {
					t.Errorf("Get after Write = %q %v %v, want \"ab\\x00\\x00\"", v, ok, err)
				}
				if err := tx.Put("other", []byte("x")); err != nil {
					return err
				}
				copy(buf[2:], "cd") // filled after another operation, still before return
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.committed(t, "k"); got != "abcd" {
				t.Fatalf("committed %q, want \"abcd\"", got)
			}
			// An overwrite of another size; the commit hook sees the
			// replicated update carry the caller's bytes.
			var replicated []Update
			_, err = r.exec(func(tx Txn) error {
				buf, err := tx.Write("k", 3)
				copy(buf, "rep")
				return err
			}, func(r Result) { replicated = cloneResult(r).Updates })
			if err != nil {
				t.Fatal(err)
			}
			if len(replicated) != 1 || string(replicated[0].Value) != "rep" {
				t.Fatalf("replicated update = %+v, want k=\"rep\"", replicated)
			}
			if got := r.committed(t, "k"); got != "rep" {
				t.Fatalf("overwrite committed %q, want \"rep\"", got)
			}
		})
	}
}

// TestWriteMixesWithPut: the last of Put and Write on a key wins, and a
// buffer detached by a later Put no longer reaches the store.
func TestWriteMixesWithPut(t *testing.T) {
	for _, e := range writeEngines() {
		t.Run(e.name, func(t *testing.T) {
			r := e.new()
			_, err := r.exec(func(tx Txn) error {
				buf, err := tx.Write("wp", 4)
				if err != nil {
					return err
				}
				copy(buf, "lost")
				if err := tx.Put("wp", []byte("put")); err != nil {
					return err
				}
				copy(buf, "late") // detached: must not commit
				if err := tx.Put("pw", []byte("put")); err != nil {
					return err
				}
				buf, err = tx.Write("pw", 5)
				copy(buf, "write")
				return err
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.committed(t, "wp"); got != "put" {
				t.Fatalf("Write then Put committed %q, want \"put\"", got)
			}
			if got := r.committed(t, "pw"); got != "write" {
				t.Fatalf("Put then Write committed %q, want \"write\"", got)
			}
		})
	}
}

// TestWriteWoundedCommitsNothing: on the locking engine an older
// transaction wounds a younger one that holds a partition; the younger's
// next Write returns ErrWounded and neither that Write nor the younger's
// earlier Put commits.
func TestWriteWoundedCommitsNothing(t *testing.T) {
	for _, name := range []string{"exec-2pl", "batch-2pl"} {
		t.Run(name, func(t *testing.T) {
			s := New(64)
			ka, kb := "a", ""
			for i := 0; kb == "" || s.PartitionOf(kb) == s.PartitionOf(ka); i++ {
				kb = fmt.Sprintf("b%d", i)
			}
			olderIn, youngerHolds := make(chan struct{}), make(chan struct{})
			var once sync.Once
			olderDone := make(chan error, 1)
			go func() {
				// The older transaction takes its timestamp first, then
				// waits for the younger to lock ka before wounding it.
				_, err := s.Exec(func(tx Txn) error {
					once.Do(func() { close(olderIn) })
					<-youngerHolds
					return tx.Put(ka, []byte("old"))
				})
				olderDone <- err
			}()
			<-olderIn
			// The younger transaction: a plain one, or a batch whose holder
			// takes its timestamp now.
			r := writeRig{s, s.ExecWithHook, func() {}}
			if name == "batch-2pl" {
				b := s.NewBatch()
				r = writeRig{s, b.ExecWithHook, b.Flush}
			}
			attempts := 0
			var werr error
			var wbuf []byte
			_, err := r.exec(func(tx Txn) error {
				if attempts++; attempts > 1 {
					return ErrAbort
				}
				if err := tx.Put(ka, []byte("young")); err != nil {
					return err
				}
				close(youngerHolds)
				for deadline := time.Now().Add(5 * time.Second); !woundedTxn(tx); {
					if time.Now().After(deadline) {
						return errors.New("never wounded")
					}
					time.Sleep(100 * time.Microsecond)
				}
				wbuf, werr = tx.Write(kb, 4)
				copy(wbuf, "lost")
				return werr
			}, nil)
			if !errors.Is(werr, ErrWounded) || wbuf != nil {
				t.Fatalf("wounded Write = %x, %v; want nil, ErrWounded", wbuf, werr)
			}
			if !errors.Is(err, ErrAbort) || attempts != 2 {
				t.Fatalf("exec = %v after %d attempts, want the retry's ErrAbort after 2", err, attempts)
			}
			if err := <-olderDone; err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(kb); ok {
				t.Fatal("the wounded transaction's Write committed")
			}
			if got := r.committed(t, ka); got != "old" {
				t.Fatalf("%s = %q, want the older transaction's \"old\"", ka, got)
			}
		})
	}
}

// woundedTxn reports whether a transaction's lock holder has been wounded.
func woundedTxn(tx Txn) bool { return tx.(*batchView).batch.hold.isWounded() }

// TestGetKeyMatchesGet: GetKey finds exactly what Get finds for the same
// key, inline or past the inline capacity (a Key never truncates), and
// sees the transaction's own writes.
func TestGetKeyMatchesGet(t *testing.T) {
	inline := MakeKey("f:", []byte{1, 2, 3})
	long := MakeKey(strings.Repeat("p", keyCap), []byte{9})
	edge := MakeKey(strings.Repeat("e", keyCap-1), []byte{7})
	if inline.String() != "f:\x01\x02\x03" || long.String() != strings.Repeat("p", keyCap)+"\x09" ||
		len(edge.String()) != keyCap || (Key{}).String() != "" {
		t.Fatalf("MakeKey round trip: %q %q %q", inline, long, edge)
	}
	for _, e := range writeEngines() {
		t.Run(e.name, func(t *testing.T) {
			r := e.new()
			_, err := r.exec(func(tx Txn) error {
				for _, k := range []Key{inline, long, edge} {
					if _, ok, err := tx.GetKey(k); err != nil || ok {
						return fmt.Errorf("GetKey(%q) before any write: %v %v", k, ok, err)
					}
					if err := tx.Put(k.String(), []byte(k.String())); err != nil {
						return err
					}
					if v, ok, err := tx.GetKey(k); err != nil || !ok || string(v) != k.String() {
						return fmt.Errorf("GetKey(%q) after Put = %q %v %v", k, v, ok, err)
					}
				}
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.exec(func(tx Txn) error {
				for _, k := range []Key{inline, long, edge} {
					v, ok, err := tx.GetKey(k)
					if err != nil || !ok || string(v) != k.String() {
						return fmt.Errorf("GetKey(%q) = %q %v %v", k, v, ok, err)
					}
				}
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
