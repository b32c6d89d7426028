// Package hashx provides allocation-free FNV-1a hashing shared by every
// layer that hashes per packet or per key: state partitioning
// (state.Store.PartitionOf), the RSS flow hash (wire.RSSHash), and
// the five-tuple hash (wire.FiveTuple.Hash).
//
// The standard library's hash/fnv forces a heap allocation per hasher
// (fnv.New32a returns a pointer that escapes), which on the data plane means
// one allocation per key lookup. These helpers are plain functions over
// uint32/uint64 accumulators; they inline and keep the hot path on registers.
//
// The functions are bit-for-bit identical to hash/fnv's FNV-1a: replicas
// built on either implementation compute the same partition for the same key,
// which the replication protocol requires (a head and its followers must
// agree on partition numbering). hashx_test.go locks this in with golden
// vectors and a direct equivalence check against hash/fnv.
package hashx

// FNV-1a constants (FNV-0 offset basis hashed over "chongo <Landon Curt
// Noll> /\\../\\"), identical to hash/fnv.
const (
	Offset32 uint32 = 2166136261
	Prime32  uint32 = 16777619
	Offset64 uint64 = 14695981039346656037
	Prime64  uint64 = 1099511628211
)

// Sum32String returns the 32-bit FNV-1a hash of s, equal to
// fnv.New32a().Write([]byte(s)).Sum32() without the allocations.
func Sum32String(s string) uint32 {
	h := Offset32
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * Prime32
	}
	return h
}

// Sum32 returns the 32-bit FNV-1a hash of b.
func Sum32(b []byte) uint32 {
	h := Offset32
	for _, c := range b {
		h = (h ^ uint32(c)) * Prime32
	}
	return h
}

// Sum64 returns the 64-bit FNV-1a hash of b, equal to
// fnv.New64a().Write(b).Sum64().
func Sum64(b []byte) uint64 {
	h := Offset64
	for _, c := range b {
		h = (h ^ uint64(c)) * Prime64
	}
	return h
}

// Sum64String returns the 64-bit FNV-1a hash of s, equal to
// fnv.New64a().Write([]byte(s)).Sum64() without the allocations. The state
// tables use it for slot probing (h1 = group index, h2 = control byte) while
// PartitionOf stays on Sum32String — the partition mapping is pinned by the
// replication protocol and must not change.
func Sum64String(s string) uint64 {
	h := Offset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * Prime64
	}
	return h
}

// Mix64 folds b into a running 64-bit FNV-1a state. Start from Offset64.
// Use this to hash several fields without assembling them into one buffer.
func Mix64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * Prime64
	}
	return h
}

// MixByte64 folds a single byte into a running 64-bit FNV-1a state.
func MixByte64(h uint64, c byte) uint64 {
	return (h ^ uint64(c)) * Prime64
}
