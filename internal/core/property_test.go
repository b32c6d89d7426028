package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/ftsfc/ftc/internal/state"
)

// TestQuickFollowerConvergesUnderAnyOrder: for random transaction workloads
// applied to a follower in a random order (with repair from the head's
// buffer), the follower always converges to exactly the head's state and
// vector. This is the protocol's core safety property under reordering.
func TestQuickFollowerConvergesUnderAnyOrder(t *testing.T) {
	f := func(opKeys []uint8, seed int64) bool {
		if len(opKeys) == 0 {
			return true
		}
		if len(opKeys) > 120 {
			opKeys = opKeys[:120]
		}
		h := NewHead(0, state.New(16))
		var logs []Log
		for i, k := range opKeys {
			key := fmt.Sprintf("key-%d", k%12)
			val := []byte{byte(i)}
			l, err := h.Transaction(func(tx state.Txn) error {
				if k%7 == 0 { // sprinkle read-only transactions
					_, _, err := tx.Get(key)
					return err
				}
				return tx.Put(key, val)
			})
			if err != nil {
				return false
			}
			logs = append(logs, l)
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(logs), func(i, j int) { logs[i], logs[j] = logs[j], logs[i] })

		fol := NewFollower(0, state.New(16))
		repair := func() {
			for _, l := range h.Buffer().Missing(fol.Max()) {
				fol.Apply(l)
			}
		}
		for _, l := range logs {
			if !applyOrRepair(fol, l, repair, 5*time.Second) {
				return false
			}
		}
		// Convergence: stores byte-identical, vectors equal.
		hs, fs := h.Store().Snapshot(), fol.Store().Snapshot()
		if len(hs) != len(fs) {
			return false
		}
		for i := range hs {
			if hs[i].Key != fs[i].Key || string(hs[i].Value) != string(fs[i].Value) {
				return false
			}
		}
		hv, fm := h.Vector(), fol.Max()
		for p := range hv {
			if hv[p] != fm[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDuplicateApplicationIsIdempotent: applying every log an
// arbitrary number of extra times (repair retransmissions) never changes
// the outcome.
func TestQuickDuplicateApplicationIsIdempotent(t *testing.T) {
	f := func(opKeys []uint8, dups uint8) bool {
		if len(opKeys) == 0 {
			return true
		}
		if len(opKeys) > 60 {
			opKeys = opKeys[:60]
		}
		h := NewHead(0, state.New(8))
		var logs []Log
		for i, k := range opKeys {
			key := fmt.Sprintf("key-%d", k%6)
			l, err := h.Transaction(func(tx state.Txn) error {
				return tx.Put(key, []byte{byte(i)})
			})
			if err != nil {
				return false
			}
			logs = append(logs, l)
		}
		fol := NewFollower(0, state.New(8))
		for i, l := range logs {
			if fol.Apply(l) != Applied {
				return false
			}
			// Replay a window of earlier logs (simulated retransmission).
			for d := 0; d < int(dups%4); d++ {
				for j := 0; j <= i; j++ {
					if out := fol.Apply(logs[j]); out == Blocked {
						return false
					}
				}
			}
		}
		hs, fs := h.Store().Snapshot(), fol.Store().Snapshot()
		if len(hs) != len(fs) {
			return false
		}
		for i := range hs {
			if string(hs[i].Value) != string(fs[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCommitNeverExceedsHead: a tail's commit vector (its MAX) can
// never run ahead of the head's dependency vector, whatever prefix of logs
// it has applied — the invariant the buffer's release rule rests on.
func TestQuickCommitNeverExceedsHead(t *testing.T) {
	f := func(opKeys []uint8, applyN uint8) bool {
		if len(opKeys) == 0 {
			return true
		}
		if len(opKeys) > 50 {
			opKeys = opKeys[:50]
		}
		h := NewHead(0, state.New(8))
		var logs []Log
		for i, k := range opKeys {
			l, err := h.Transaction(func(tx state.Txn) error {
				return tx.Put(fmt.Sprintf("key-%d", k%5), []byte{byte(i)})
			})
			if err != nil {
				return false
			}
			logs = append(logs, l)
		}
		fol := NewFollower(0, state.New(8))
		n := int(applyN) % (len(logs) + 1)
		for _, l := range logs[:n] {
			fol.Apply(l)
		}
		hv, fm := h.Vector(), fol.Max()
		for p := range hv {
			if fm[p] > hv[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRingGroupsCoverAllFailures: for every ring shape and every set
// of up to F failed nodes, each middlebox's group retains at least one
// alive member — the structural property that makes recovery possible —
// and TailOf inverts Tail.
func TestQuickRingGroupsCoverAllFailures(t *testing.T) {
	f := func(n, fTol uint8, failSeed int64) bool {
		N := int(n%6) + 1
		F := int(fTol%4) + 1
		r := Ring{N: N, F: F}
		m := r.M()
		// Fail exactly F distinct nodes at random.
		rng := rand.New(rand.NewSource(failSeed))
		failed := map[int]bool{}
		for len(failed) < F && len(failed) < m {
			failed[rng.Intn(m)] = true
		}
		for j := 0; j < N; j++ {
			alive := 0
			for _, mem := range r.Members(j) {
				if !failed[mem] {
					alive++
				}
			}
			if alive == 0 {
				return false // F+1 members minus ≤F failures must leave ≥1
			}
		}
		// The consecutive layout gives a node at most one group to tail, and
		// TailOf names it: the one-index tail duty in the pipeline relies on it.
		tailed := make([]int, m)
		for i := range tailed {
			tailed[i] = -1
		}
		for j := 0; j < N; j++ {
			if tailed[r.Tail(j)] != -1 {
				return false
			}
			tailed[r.Tail(j)] = j
		}
		for i := range tailed {
			if r.TailOf(i) != tailed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
