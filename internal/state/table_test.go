package state

// White-box tests for the swiss-table partition maps (table.go), the TTL
// wheels (wheel.go), and the store's expiry surface.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// expiryBackends builds the store with few partitions so probe chains and
// wheel buckets actually fill.
func expiryBackends() []struct {
	name string
	mk   func() Backend
} {
	return []struct {
		name string
		mk   func() Backend
	}{
		{"2pl", func() Backend { return New(4) }},
	}
}

// expireAll drives the replication layer's expiry contract directly: collect
// due keys, delete them as replicated updates, until nothing is due. Returns
// the number of deletions.
func expireAll(t *testing.T, s Backend, now int64) int {
	t.Helper()
	total := 0
	for {
		keys := s.CollectExpired(now, 16, nil)
		if len(keys) == 0 {
			return total
		}
		ups := make([]Update, 0, len(keys))
		for _, k := range keys {
			ups = append(ups, Update{Key: k, Partition: s.PartitionOf(k)})
		}
		s.Apply(ups)
		total += len(ups)
		if total > 1<<20 {
			t.Fatal("expireAll did not converge")
		}
	}
}

// TestExpiryLifecycle is the deterministic spine: arm, refresh by read,
// refresh by write, expire, and never expire non-matching keys.
func TestExpiryLifecycle(t *testing.T) {
	for _, eng := range expiryBackends() {
		t.Run(eng.name, func(t *testing.T) {
			var now int64 = 1e9 // 1s on a manual clock
			s := eng.mk()
			s.ConfigureExpiry(Expiry{
				TTL:      10 * time.Millisecond,
				Prefixes: []string{"f:"},
				Clock:    func() int64 { return now },
				Tick:     time.Millisecond,
			})
			put := func(k string) {
				if _, err := s.Exec(func(tx Txn) error { return tx.Put(k, []byte("v")) }); err != nil {
					t.Fatal(err)
				}
			}
			put("f:a")
			put("f:b")
			put("shared") // no TTL prefix: never expires

			// Refresh f:a by transactional read just before f:b dies.
			now += 9e6
			if _, err := s.Exec(func(tx Txn) error {
				_, ok, err := tx.Get("f:a")
				if err != nil || !ok {
					t.Errorf("f:a missing before refresh")
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}

			now += 2e6 // f:b is now 11ms idle, f:a only 2ms
			if n := expireAll(t, s, now); n != 1 {
				t.Fatalf("expired %d keys, want 1 (f:b)", n)
			}
			if _, ok := s.Get("f:b"); ok {
				t.Fatal("f:b survived its TTL")
			}
			if _, ok := s.Get("f:a"); !ok {
				t.Fatal("refreshed f:a expired")
			}

			// Writes refresh too.
			now += 9e6
			put("f:a")
			now += 2e6
			if n := expireAll(t, s, now); n != 0 {
				t.Fatalf("expired %d keys after write refresh, want 0", n)
			}

			// Idle long enough and f:a goes; the shared key never does.
			now += 100e6
			if n := expireAll(t, s, now); n != 1 {
				t.Fatalf("expired %d keys, want 1 (f:a)", n)
			}
			if _, ok := s.Get("shared"); !ok {
				t.Fatal("non-matching key expired")
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
		})
	}
}

// TestCollectExpiredLimit checks that a batch limit drains everything across
// repeated collections at one clock reading (the ExpireNow loop contract).
func TestCollectExpiredLimit(t *testing.T) {
	for _, eng := range expiryBackends() {
		t.Run(eng.name, func(t *testing.T) {
			var now int64 = 1e9
			s := eng.mk()
			s.ConfigureExpiry(Expiry{
				TTL:      time.Millisecond,
				Prefixes: []string{"f:"},
				Clock:    func() int64 { return now },
				Tick:     time.Millisecond,
			})
			const n = 100
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("f:%03d", i)
				s.Apply([]Update{{Key: k, Value: []byte("v"), Partition: s.PartitionOf(k)}})
			}
			now += 10e6 // everything due
			seen := map[string]bool{}
			for rounds := 0; s.Len() > 0; rounds++ {
				if rounds > n {
					t.Fatalf("limit-7 collection did not drain: %d keys left", s.Len())
				}
				keys := s.CollectExpired(now, 7, nil)
				if len(keys) > 7 {
					t.Fatalf("collected %d keys, limit 7", len(keys))
				}
				ups := make([]Update, 0, len(keys))
				for _, k := range keys {
					seen[k] = true
					ups = append(ups, Update{Key: k, Partition: s.PartitionOf(k)})
				}
				s.Apply(ups)
			}
			if len(seen) != n {
				t.Fatalf("collected %d distinct keys, want %d", len(seen), n)
			}
		})
	}
}

// Property: a random interleaving of transactional puts/gets/deletes, clock
// advances, and collect+replicated-delete cycles matches a plain map model
// with explicit deadlines.
func TestQuickExpiryMatchesModel(t *testing.T) {
	const (
		tick     = int64(time.Millisecond)
		ttlTicks = int64(8)
	)
	type op struct {
		Key  uint8
		Kind uint8
		Val  []byte
	}
	for _, eng := range expiryBackends() {
		t.Run(eng.name, func(t *testing.T) {
			f := func(ops []op) bool {
				now := int64(1e9)
				s := eng.mk()
				s.ConfigureExpiry(Expiry{
					TTL:      time.Duration(ttlTicks) * time.Millisecond,
					Prefixes: []string{"f:"},
					Clock:    func() int64 { return now },
					Tick:     time.Millisecond,
				})
				model := map[string][]byte{}
				deadline := map[string]int64{} // wheel ticks; only "f:" keys
				tickNow := func() int64 { return now / tick }
				for _, o := range ops {
					var k string
					if o.Key%4 == 0 {
						k = fmt.Sprintf("s:%d", o.Key%8) // shared: no TTL
					} else {
						k = fmt.Sprintf("f:%d", o.Key%16)
					}
					switch o.Kind % 4 {
					case 0: // put
						if _, err := s.Exec(func(tx Txn) error { return tx.Put(k, o.Val) }); err != nil {
							return false
						}
						model[k] = append([]byte(nil), o.Val...)
						if k[0] == 'f' {
							deadline[k] = tickNow() + ttlTicks
						}
					case 1: // transactional read: refreshes armed keys
						var got []byte
						var ok bool
						if _, err := s.Exec(func(tx Txn) error {
							v, o, err := tx.Get(k)
							got, ok = append([]byte(nil), v...), o
							return err
						}); err != nil {
							return false
						}
						want, wok := model[k]
						if ok != wok || (ok && !bytes.Equal(got, want)) {
							return false
						}
						if _, armed := deadline[k]; armed && ok {
							deadline[k] = tickNow() + ttlTicks
						}
					case 2: // delete
						if _, err := s.Exec(func(tx Txn) error { return tx.Delete(k) }); err != nil {
							return false
						}
						delete(model, k)
						delete(deadline, k)
					case 3: // advance the clock, then expire like the replica does
						now += int64(o.Key%5) * tick
						keys := s.CollectExpired(now, -1, nil)
						ups := make([]Update, 0, len(keys))
						for _, key := range keys {
							if deadline[key] > tickNow() {
								return false // collected a key the model says is live
							}
							ups = append(ups, Update{Key: key, Partition: s.PartitionOf(key)})
						}
						s.Apply(ups)
						for key, d := range deadline {
							if d <= tickNow() {
								delete(model, key)
								delete(deadline, key)
							}
						}
					}
				}
				// Drain everything due and compare final contents.
				now += 1000 * tick
				expireAll(t, s, now)
				for key, d := range deadline {
					if d <= tickNow() {
						delete(model, key)
					}
				}
				if s.Len() != len(model) {
					return false
				}
				for key, want := range model {
					got, ok := s.Get(key)
					if !ok || !bytes.Equal(got, want) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTableTombstoneCompaction forces the same-size rehash: a table whose
// occupancy is mostly tombstones must compact in place (dead → 0, capacity
// unchanged) instead of doubling.
func TestTableTombstoneCompaction(t *testing.T) {
	var tab table
	tab.init(minTableCap) // 16 slots, 2 groups
	if len(tab.slots) != 16 {
		t.Fatalf("minTableCap table has %d slots, want 16", len(tab.slots))
	}
	keys := make([]string, 14)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		tab.put(keys[i], []byte{byte(i)}, 0)
	}
	if len(tab.slots) != 16 {
		t.Fatalf("table grew to %d slots on %d inserts", len(tab.slots), len(keys))
	}
	for _, k := range keys[6:] {
		if !tab.del(k) {
			t.Fatalf("delete %q failed", k)
		}
	}
	if tab.live != 6 || tab.dead != 8 {
		t.Fatalf("live=%d dead=%d, want 6/8", tab.live, tab.dead)
	}
	// live+dead+1 = 15 > 16*7/8: the next insert must rehash; with only 7
	// live entries afterwards it must stay at 16 slots.
	tab.put("fresh", []byte("v"), 0)
	if len(tab.slots) != 16 {
		t.Fatalf("compaction doubled the table to %d slots", len(tab.slots))
	}
	if tab.dead != 0 {
		t.Fatalf("compaction left %d tombstones", tab.dead)
	}
	if tab.live != 7 {
		t.Fatalf("live=%d after compaction, want 7", tab.live)
	}
	for _, k := range keys[:6] {
		if _, ok := tab.get(k); !ok {
			t.Fatalf("%q lost in compaction", k)
		}
	}
	if _, ok := tab.get("fresh"); !ok {
		t.Fatal("inserted key lost in compaction")
	}
	for _, k := range keys[6:] {
		if _, ok := tab.get(k); ok {
			t.Fatalf("deleted %q resurrected by compaction", k)
		}
	}

	// A mostly-live table at the bound must double instead.
	var big table
	big.init(minTableCap)
	for i := 0; i < 15; i++ {
		big.put(fmt.Sprintf("b%02d", i), []byte("v"), 0)
	}
	if len(big.slots) != 32 {
		t.Fatalf("full table rehashed to %d slots, want 32", len(big.slots))
	}
	for i := 0; i < 15; i++ {
		if _, ok := big.get(fmt.Sprintf("b%02d", i)); !ok {
			t.Fatalf("b%02d lost in growth rehash", i)
		}
	}
}

// TestTableValueRecycling checks the zero-allocation contract of the churn
// path: overwrites and delete/reinsert cycles at stable capacity allocate
// nothing.
func TestTableValueRecycling(t *testing.T) {
	var tab table
	tab.init(64)
	val := bytes.Repeat([]byte("x"), 32)
	for i := 0; i < 8; i++ {
		tab.put(fmt.Sprintf("k%d", i), val, 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tab.put("k3", val, 0)
		tab.del("k3")
		tab.put("k3", val, 0)
	})
	if allocs != 0 {
		t.Fatalf("churn path allocates %.1f per op, want 0", allocs)
	}
}

// wheelPop advances the wheel collecting entries that report themselves due
// via a deadlines table, mirroring how collectExpired uses it.
func wheelPop(w *wheel, deadlines map[int32]int64, nowTick int64) []int32 {
	var due []int32
	w.advance(nowTick, func(e wheelEntry) int64 {
		d, ok := deadlines[e.slot]
		if !ok {
			return 0
		}
		if d > nowTick {
			return d
		}
		due = append(due, e.slot)
		delete(deadlines, e.slot)
		return 0
	})
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

func TestWheelLevels(t *testing.T) {
	var w wheel
	deadlines := map[int32]int64{
		1: 1005,  // level 0
		2: 1300,  // level 1 (rel 300)
		3: 70000, // overflow (rel > 65536 from tick 1000)
	}
	for slot, d := range deadlines {
		w.add(wheelEntry{slot: slot, gen: 1}, d)
	}
	if got := wheelPop(&w, deadlines, 1004); len(got) != 0 {
		t.Fatalf("popped %v before any deadline", got)
	}
	if got := wheelPop(&w, deadlines, 1005); len(got) != 1 || got[0] != 1 {
		t.Fatalf("tick 1005 popped %v, want [1]", got)
	}
	// Step through the level-1 cascade window tick by tick.
	for tick := int64(1006); tick < 1300; tick += 97 {
		if got := wheelPop(&w, deadlines, tick); len(got) != 0 {
			t.Fatalf("tick %d popped %v early", tick, got)
		}
	}
	if got := wheelPop(&w, deadlines, 1300); len(got) != 1 || got[0] != 2 {
		t.Fatalf("tick 1300 popped %v, want [2]", got)
	}
	// A jump past the horizon sweeps the overflow list.
	if got := wheelPop(&w, deadlines, 80000); len(got) != 1 || got[0] != 3 {
		t.Fatalf("sweep popped %v, want [3]", got)
	}
	if len(deadlines) != 0 {
		t.Fatalf("%d entries never popped", len(deadlines))
	}
}

func TestWheelRefreshRefiles(t *testing.T) {
	var w wheel
	deadlines := map[int32]int64{7: 100}
	w.add(wheelEntry{slot: 7, gen: 1}, 100)
	deadlines[7] = 160 // refreshed after filing: the pop at 100 must re-file
	if got := wheelPop(&w, deadlines, 120); len(got) != 0 {
		t.Fatalf("refreshed entry popped early: %v", got)
	}
	if got := wheelPop(&w, deadlines, 160); len(got) != 1 || got[0] != 7 {
		t.Fatalf("refreshed entry popped %v at its new deadline, want [7]", got)
	}
}

func TestWheelPendingDrainsWithoutClockMovement(t *testing.T) {
	var w wheel
	w.add(wheelEntry{slot: 1, gen: 1}, 50)
	w.advance(50, func(e wheelEntry) int64 { return 50 }) // park on pending
	popped := 0
	w.advance(50, func(e wheelEntry) int64 { popped++; return 0 })
	if popped != 1 {
		t.Fatal("pending entry not re-examined at a static clock")
	}
}

// TestExpiryRestoreRearms checks the documented failover slack: restored
// matching keys get a fresh TTL and still expire afterwards.
func TestExpiryRestoreRearms(t *testing.T) {
	for _, eng := range expiryBackends() {
		t.Run(eng.name, func(t *testing.T) {
			var now int64 = 1e9
			mkConfigured := func() Backend {
				s := eng.mk()
				s.ConfigureExpiry(Expiry{
					TTL:      5 * time.Millisecond,
					Prefixes: []string{"f:"},
					Clock:    func() int64 { return now },
					Tick:     time.Millisecond,
				})
				return s
			}
			s := mkConfigured()
			s.Apply([]Update{{Key: "f:x", Value: []byte("v"), Partition: s.PartitionOf("f:x")}})
			snap := s.Snapshot()

			r := mkConfigured()
			r.Restore(snap)
			if _, ok := r.Get("f:x"); !ok {
				t.Fatal("restore lost f:x")
			}
			now += 100e6
			if n := expireAll(t, r, now); n != 1 {
				t.Fatalf("restored key did not expire: %d deletions", n)
			}
		})
	}
}
