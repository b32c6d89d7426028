package slab

import "testing"

// TestCarvesAreDisjoint fills carves of many sizes (chunk-crossing, empty,
// and too big to carve) with a pattern each, appends to every one of them,
// and checks no carve saw another's writes: the capacity limit must turn an
// append into a reallocation, never a write into the neighbour.
func TestCarvesAreDisjoint(t *testing.T) {
	var s Slab[uint32]
	var carves [][]uint32
	for i := 0; i < 2000; i++ {
		n := i % 37
		if i%401 == 0 {
			n = chunkBytes // far past the carve limit
		}
		c := s.Take(n)
		if len(c) != n || cap(c) != n {
			t.Fatalf("Take(%d) returned len %d cap %d", n, len(c), cap(c))
		}
		for j := range c {
			if c[j] != 0 {
				t.Fatalf("carve %d arrived dirty at %d", i, j)
			}
			c[j] = uint32(i)
		}
		carves = append(carves, c)
	}
	for _, c := range carves {
		_ = append(c, 0xdead)
	}
	for i, c := range carves {
		for j := range c {
			if c[j] != uint32(i) {
				t.Fatalf("carve %d entry %d overwritten with %#x", i, j, c[j])
			}
		}
	}
}

func TestCloneKeepsNil(t *testing.T) {
	var s Slab[byte]
	if s.Clone(nil) != nil {
		t.Fatal("Clone(nil) is not nil")
	}
	if c := s.Clone([]byte{}); c == nil || len(c) != 0 {
		t.Fatalf("Clone(empty) = %v, want empty and non-nil", c)
	}
	src := []byte("abc")
	c := s.Clone(src)
	src[0] = 'x'
	if string(c) != "abc" {
		t.Fatalf("Clone shares memory with its source: %q", c)
	}
}

// TestChunkAmortizes pins the point of the package: small carves cost one
// allocation per chunk, not one each.
func TestChunkAmortizes(t *testing.T) {
	var s Slab[byte]
	const each = 64 // carves per run: a quarter of a chunk
	if per := testing.AllocsPerRun(100, func() {
		for i := 0; i < each; i++ {
			_ = s.Take(16)
		}
	}); per > 1 {
		t.Fatalf("%d carves of 16 B cost %.0f allocations, want a chunk now and then", each, per)
	}
}
