package core

import (
	"testing"
	"testing/quick"
)

func TestSparseVecGet(t *testing.T) {
	v := NewSparseVec(VecEntry{Part: 3, Seq: 7}, VecEntry{Part: 1, Seq: 2})
	if v.Get(1) != 2 || v.Get(3) != 7 {
		t.Fatalf("get = %d %d", v.Get(1), v.Get(3))
	}
	if v.Get(2) != DontCare {
		t.Fatal("untouched partition should be DontCare")
	}
	// NewSparseVec sorts.
	if v[0].Part != 1 || v[1].Part != 3 {
		t.Fatalf("not sorted: %v", v)
	}
}

// TestFigure3 replays the example from Figure 3 of the paper exactly:
// three partitions, head and replica starting from the same vector.
func TestFigure3(t *testing.T) {
	// The replica's MAX starts at (0,3,4).
	max := []uint64{0, 3, 4}

	// Transaction 1: W(1) — touches partition 0 (paper numbers from 1);
	// piggybacks (0,x,x).
	log1 := NewSparseVec(VecEntry{Part: 0, Seq: 0})
	// Transaction 2: R(1),W(3) — touches partitions 0 and 2; piggybacks (1,x,4).
	log2 := NewSparseVec(VecEntry{Part: 0, Seq: 1}, VecEntry{Part: 2, Seq: 4})

	// Packet 2 arrives first: 0,3,4 is NOT ≥ 1,x,4 → held.
	if log2.SatisfiedBy(max) {
		t.Fatal("out-of-order log should not be satisfied")
	}
	// Packet 1 arrives: 0,3,4 ≥ 0,x,x → applied; MAX becomes 1,3,4.
	if !log1.SatisfiedBy(max) {
		t.Fatal("in-order log should be satisfied")
	}
	log1.AdvanceInto(max)
	if max[0] != 1 || max[1] != 3 || max[2] != 4 {
		t.Fatalf("MAX after log1 = %v, want [1 3 4]", max)
	}
	// Held packet now applies: 1,3,4 ≥ 1,x,4 → MAX becomes 2,3,5.
	if !log2.SatisfiedBy(max) {
		t.Fatal("held log should now be satisfied")
	}
	log2.AdvanceInto(max)
	if max[0] != 2 || max[1] != 3 || max[2] != 5 {
		t.Fatalf("MAX after log2 = %v, want [2 3 5]", max)
	}
}

func TestSupersededBy(t *testing.T) {
	max := []uint64{5, 5}
	old := NewSparseVec(VecEntry{Part: 0, Seq: 2})
	cur := NewSparseVec(VecEntry{Part: 0, Seq: 5})
	if !old.SupersededBy(max) {
		t.Fatal("already-applied log not detected as duplicate")
	}
	if cur.SupersededBy(max) {
		t.Fatal("next log flagged as duplicate")
	}
	if (SparseVec{}).SupersededBy(max) {
		t.Fatal("empty vector must never be superseded")
	}
}

func TestCommittedBy(t *testing.T) {
	v := NewSparseVec(VecEntry{Part: 2, Seq: 4})
	// Write log: needs commit[2] ≥ 5.
	if v.CommittedBy([]uint64{0, 0, 4}, false) {
		t.Fatal("write log committed too early")
	}
	if !v.CommittedBy([]uint64{0, 0, 5}, false) {
		t.Fatal("write log should be committed")
	}
	// Noop log: needs commit[2] ≥ 4 (everything it read replicated).
	if !v.CommittedBy([]uint64{0, 0, 4}, true) {
		t.Fatal("noop log should be committed")
	}
	if v.CommittedBy([]uint64{0, 0, 3}, true) {
		t.Fatal("noop log committed before its reads replicated")
	}
}

func TestVecOutOfRangePartition(t *testing.T) {
	v := NewSparseVec(VecEntry{Part: 9, Seq: 0})
	max := []uint64{1, 2}
	if v.SatisfiedBy(max) || v.SupersededBy(max) || v.CommittedBy(max, false) {
		t.Fatal("out-of-range partitions must never satisfy")
	}
	v.AdvanceInto(max) // must not panic
}

func TestDenseSparseConversions(t *testing.T) {
	s := SparseFromDense([]uint64{0, 7, 0, 3})
	if len(s) != 2 || s.Get(1) != 7 || s.Get(3) != 3 {
		t.Fatalf("sparse = %v", s)
	}
	d := DenseFromSparse(s, 4)
	if d[0] != 0 || d[1] != 7 || d[3] != 3 {
		t.Fatalf("dense = %v", d)
	}
	// Out-of-range entries in sparse are dropped when densifying.
	d2 := DenseFromSparse(NewSparseVec(VecEntry{Part: 10, Seq: 1}), 2)
	if len(d2) != 2 {
		t.Fatalf("dense len = %d", len(d2))
	}
}

func TestSparseVecString(t *testing.T) {
	v := NewSparseVec(VecEntry{Part: 1, Seq: 2})
	if v.String() != "[1:2]" {
		t.Fatalf("string = %q", v.String())
	}
}

func TestCloneIndependent(t *testing.T) {
	v := NewSparseVec(VecEntry{Part: 0, Seq: 1})
	c := v.Clone()
	c[0].Seq = 99
	if v[0].Seq != 1 {
		t.Fatal("clone aliases source")
	}
	if SparseVec(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

// Property: advancing a satisfied vector makes it superseded, and a
// satisfied+advanced max still satisfies any later vector per partition.
func TestQuickAdvanceMakesSuperseded(t *testing.T) {
	f := func(parts []uint8, seqs []uint8) bool {
		if len(parts) == 0 {
			return true
		}
		if len(seqs) < len(parts) {
			return true
		}
		max := make([]uint64, 16)
		seen := map[uint16]bool{}
		var v SparseVec
		for i, p := range parts {
			part := uint16(p % 16)
			if seen[part] {
				continue
			}
			seen[part] = true
			seq := uint64(seqs[i] % 8)
			max[part] = seq // make it exactly satisfied
			v = append(v, VecEntry{Part: part, Seq: seq})
		}
		if len(v) == 0 {
			return true
		}
		v = NewSparseVec(v...)
		if !v.SatisfiedBy(max) {
			return false
		}
		if v.SupersededBy(max) {
			return false
		}
		v.AdvanceInto(max)
		return v.SupersededBy(max) && v.SatisfiedBy(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRingBasic(t *testing.T) {
	r := Ring{N: 5, F: 1}
	if r.M() != 5 {
		t.Fatalf("M = %d", r.M())
	}
	if got := r.Members(0); got[0] != 0 || got[1] != 1 {
		t.Fatalf("members(0) = %v", got)
	}
	// Last middlebox's group wraps to the start (paper Figure 4).
	if got := r.Members(4); got[0] != 4 || got[1] != 0 {
		t.Fatalf("members(4) = %v", got)
	}
	if r.Tail(4) != 0 || r.Tail(0) != 1 {
		t.Fatalf("tails = %d %d", r.Tail(4), r.Tail(0))
	}
	if !r.Wrapped(4) || r.Wrapped(3) {
		t.Fatal("wrap detection wrong")
	}
}

func TestRingMembership(t *testing.T) {
	r := Ring{N: 4, F: 2}
	// Group of mb 3 on ring of 4: {3, 0, 1}.
	for _, i := range []int{3, 0, 1} {
		if !r.IsMember(i, 3) {
			t.Fatalf("node %d should be member of group 3", i)
		}
	}
	if r.IsMember(2, 3) {
		t.Fatal("node 2 should not be in group 3")
	}
	// Node 0 follows middleboxes 3 and 2 (the two preceding it).
	fo := r.FollowerOf(0)
	if len(fo) != 2 || fo[0] != 3 || fo[1] != 2 {
		t.Fatalf("followerOf(0) = %v", fo)
	}
	if r.TailOf(1) != 3 {
		t.Fatalf("tailOf(1) = %d", r.TailOf(1))
	}
}

func TestRingExtensionReplicas(t *testing.T) {
	// Chain of 2 middleboxes tolerating 2 failures: ring must grow to 3.
	r := Ring{N: 2, F: 2}
	if r.M() != 3 {
		t.Fatalf("M = %d", r.M())
	}
	// Node 2 is an extension replica: follows both middleboxes, heads none.
	fo := r.FollowerOf(2)
	if len(fo) != 2 {
		t.Fatalf("followerOf(2) = %v", fo)
	}
	// TailOf for a position that maps past the middlebox count is -1.
	if r.TailOf(1) != -1 { // (1-2) mod 3 = 2, which is ≥ N
		t.Fatalf("tailOf(1) = %d", r.TailOf(1))
	}
	if r.TailOf(2) != 0 {
		t.Fatalf("tailOf(2) = %d", r.TailOf(2))
	}
}

func TestRingPredSucc(t *testing.T) {
	r := Ring{N: 5, F: 2}
	if r.PredecessorInGroup(4, 4) != -1 {
		t.Fatal("head has no predecessor")
	}
	if r.PredecessorInGroup(0, 4) != 4 {
		t.Fatalf("pred of 0 in group 4 = %d", r.PredecessorInGroup(0, 4))
	}
	if r.SuccessorInGroup(1, 4) != -1 { // 1 is the tail of group 4 (4+2 mod 5)
		t.Fatal("tail has no successor")
	}
	if r.SuccessorInGroup(4, 4) != 0 {
		t.Fatalf("succ of 4 in group 4 = %d", r.SuccessorInGroup(4, 4))
	}
	if r.PredecessorInGroup(3, 0) != -1 { // not a member
		t.Fatal("non-member should have no predecessor")
	}
}

// Every ring node is the tail of at most one middlebox, and every middlebox
// has exactly one tail; groups have exactly F+1 members.
func TestRingInvariants(t *testing.T) {
	for _, rc := range []Ring{{N: 2, F: 1}, {N: 5, F: 1}, {N: 5, F: 4}, {N: 3, F: 5}, {N: 1, F: 1}} {
		tails := map[int]int{}
		for j := 0; j < rc.N; j++ {
			members := rc.Members(j)
			if len(members) != rc.F+1 {
				t.Fatalf("%+v: group %d size %d", rc, j, len(members))
			}
			seen := map[int]bool{}
			for _, i := range members {
				if seen[i] {
					t.Fatalf("%+v: group %d has duplicate member %d (ring too small)", rc, j, i)
				}
				seen[i] = true
				if !rc.IsMember(i, j) {
					t.Fatalf("%+v: IsMember(%d,%d) false for listed member", rc, i, j)
				}
			}
			tails[rc.Tail(j)]++
		}
		for i, c := range tails {
			if c != 1 {
				t.Fatalf("%+v: node %d is tail of %d middleboxes", rc, i, c)
			}
		}
		for i := 0; i < rc.M(); i++ {
			if j := rc.TailOf(i); j >= 0 && rc.Tail(j) != i {
				t.Fatalf("%+v: TailOf(%d)=%d but Tail(%d)=%d", rc, i, j, j, rc.Tail(j))
			}
			for _, j := range rc.FollowerOf(i) {
				if !rc.IsMember(i, j) || i == j {
					t.Fatalf("%+v: FollowerOf(%d) lists %d wrongly", rc, i, j)
				}
			}
		}
	}
}
