// Package slab carves small slices for data-plane objects whose lifetime
// nobody can predict — a piggybacked value waiting in a retransmission
// buffer to be pruned, a held packet's vectors waiting for a commit — out of
// fixed-size chunks, so such objects cost one allocation per chunk instead
// of one each.
//
// Chunks are never reused: the garbage collector frees a chunk when the
// last slice carved from it dies. There is no free list, generation counter
// or release call, so nothing carved here can alias a later carve. The price
// is that a chunk lives as long as its longest-lived slice — never hand a
// carved slice to an owner that keeps it indefinitely (stores copy on put).
package slab

import "unsafe"

// chunkBytes is the size of one chunk. Small on purpose: a chunk pinned by
// one straggler wastes at most this much, and a worker's open chunks add
// nothing measurable to the resident set.
const chunkBytes = 4 << 10

// Slab is a bump allocator over chunks of T. The zero value is ready to
// use. A Slab belongs to one goroutine.
type Slab[T any] struct {
	free []T // unused tail of the current chunk
}

// Take returns a zeroed slice of length and capacity n that shares no
// memory with any other slice ever returned. The capacity limit makes an
// append by the holder reallocate instead of writing into its neighbour.
func (s *Slab[T]) Take(n int) []T {
	if n == 0 {
		return []T{} // a zero-length carve would still pin its chunk
	}
	if n > len(s.free) {
		per := chunkBytes / int(unsafe.Sizeof(*new(T)))
		if n > per/4 {
			// Big objects get their own allocation: carving them would
			// abandon most of a chunk's tail on every refill.
			return make([]T, n)
		}
		s.free = make([]T, per)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Clone returns a carved copy of src (nil stays nil).
func (s *Slab[T]) Clone(src []T) []T {
	if src == nil {
		return nil
	}
	out := s.Take(len(src))
	copy(out, src)
	return out
}
