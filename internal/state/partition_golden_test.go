package state

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestPartitionOfGolden pins the key→partition mapping to the original
// hash/fnv implementation. Every replica of a middlebox must compute the
// same partition for the same key or dependency vectors stop lining up, so
// a change in this mapping is a protocol-breaking change, not a test to
// update.
func TestPartitionOfGolden(t *testing.T) {
	// Fixed golden values (computed with hash/fnv at 64 partitions). These
	// must never change across releases: recovery replays snapshots whose
	// Partition fields were stamped by older builds.
	golden := map[string]uint16{
		"":                     5,
		"flow-1":               27,
		"flowkey-0123":         39,
		"client-10.0.0.1:5123": 44,
	}
	ref := func(key string, parts int) uint16 {
		h := fnv.New32a()
		h.Write([]byte(key))
		return uint16(h.Sum32() % uint32(parts))
	}
	s64 := New(64)
	for key, want := range golden {
		if got := ref(key, 64); got != want {
			t.Fatalf("golden table wrong for %q: stdlib says %d, table says %d", key, got, want)
		}
		if got := s64.PartitionOf(key); got != want {
			t.Errorf("Store.PartitionOf(%q) = %d, want %d", key, got, want)
		}
	}
	// Broad sweep: the inlined hash must agree with hash/fnv on arbitrary
	// keys and multiple partition counts.
	s256 := New(256)
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%d/%x", i, i*2654435761)
		if got, want := s64.PartitionOf(key), ref(key, 64); got != want {
			t.Fatalf("Store.PartitionOf(%q) = %d, want %d", key, got, want)
		}
		if got, want := s256.PartitionOf(key), ref(key, 256); got != want {
			t.Fatalf("Store(256).PartitionOf(%q) = %d, want %d", key, got, want)
		}
	}
}

// TestPartitionOfAllocFree guards the reason the hash was inlined: no
// allocation per key lookup.
func TestPartitionOfAllocFree(t *testing.T) {
	s := New(64)
	if n := testing.AllocsPerRun(100, func() { _ = s.PartitionOf("flowkey-0123") }); n != 0 {
		t.Fatalf("PartitionOf allocated %.1f times per run, want 0", n)
	}
}
