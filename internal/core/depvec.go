// Package core implements the paper's primary contribution: the FTC
// replication protocol (§4–§5). It provides data dependency vectors,
// piggyback logs and messages, the head/follower/tail replica roles,
// replication groups arranged on the chain's logical ring, the forwarder and
// buffer elements, repair (retransmission) of lost piggyback logs, pruning
// via commit vectors, and failure recovery.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// DontCare marks a partition a transaction did not touch (§4.3).
const DontCare = ^uint64(0)

// VecEntry is one (partition, sequence) element of a sparse dependency
// vector.
type VecEntry struct {
	Part uint16
	Seq  uint64
}

// SparseVec is a sparse data dependency vector: entries exist only for
// partitions the transaction touched; all other partitions are "don't care".
// Entries are kept sorted by partition.
//
// Seq values are the head's *pre-increment* sequence numbers: the value the
// follower's MAX vector must reach before the log applies. This reproduces
// Figure 3 of the paper: a transaction that writes partition 1 while the
// head's vector is (0,3,4) piggybacks (0,x,x) and advances the head to
// (1,3,4).
type SparseVec []VecEntry

// NewSparseVec builds a sorted sparse vector from entries.
func NewSparseVec(entries ...VecEntry) SparseVec {
	v := SparseVec(entries)
	sort.Slice(v, func(i, j int) bool { return v[i].Part < v[j].Part })
	return v
}

// Get returns the sequence for partition p, or DontCare.
func (v SparseVec) Get(p uint16) uint64 {
	i := sort.Search(len(v), func(i int) bool { return v[i].Part >= p })
	if i < len(v) && v[i].Part == p {
		return v[i].Seq
	}
	return DontCare
}

// SatisfiedBy reports whether every touched partition has been applied up to
// the vector's sequence at a follower with the given MAX: max[p] ≥ v[p].
func (v SparseVec) SatisfiedBy(max []uint64) bool {
	for _, e := range v {
		if int(e.Part) >= len(max) || max[e.Part] < e.Seq {
			return false
		}
	}
	return true
}

// SupersededBy reports whether a follower has already applied this log:
// max[p] > v[p] for every touched partition. Duplicate logs arise from
// repair retransmissions and recovery replay.
func (v SparseVec) SupersededBy(max []uint64) bool {
	if len(v) == 0 {
		return false
	}
	for _, e := range v {
		if int(e.Part) >= len(max) || max[e.Part] <= e.Seq {
			return false
		}
	}
	return true
}

// AdvanceInto bumps max to reflect this log having been applied:
// max[p] = v[p]+1 for every touched partition.
func (v SparseVec) AdvanceInto(max []uint64) {
	for _, e := range v {
		if int(e.Part) < len(max) && max[e.Part] < e.Seq+1 {
			max[e.Part] = e.Seq + 1
		}
	}
}

// CommittedBy reports whether the tail's commit vector confirms f+1
// replication of this log's effects. Write logs need commit[p] ≥ v[p]+1
// (their own update replicated); read-only (noop) logs need commit[p] ≥ v[p]
// (everything they observed replicated). This is the buffer's release rule
// (§5.1).
func (v SparseVec) CommittedBy(commit []uint64, noop bool) bool {
	need := uint64(1)
	if noop {
		need = 0
	}
	for _, e := range v {
		if int(e.Part) >= len(commit) || commit[e.Part] < e.Seq+need {
			return false
		}
	}
	return true
}

// Clone deep-copies the vector.
func (v SparseVec) Clone() SparseVec {
	if v == nil {
		return nil
	}
	out := make(SparseVec, len(v))
	copy(out, v)
	return out
}

// String renders the vector like the paper's figures: "don't care" as x.
func (v SparseVec) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", e.Part, e.Seq)
	}
	b.WriteByte(']')
	return b.String()
}

// DenseVec helpers — followers and tails keep dense MAX vectors.

// CloneDense copies a dense vector.
func CloneDense(v []uint64) []uint64 {
	out := make([]uint64, len(v))
	copy(out, v)
	return out
}

// SparseFromDense converts a dense vector to sparse form, omitting zeros
// (an all-zero prefix carries no information: commit[p] ≥ 0 always holds).
func SparseFromDense(v []uint64) SparseVec { return AppendSparse(nil, v) }

// AppendSparse is SparseFromDense into caller-provided storage: the sparse
// entries of v are appended to dst and the result returned.
func AppendSparse(dst SparseVec, v []uint64) SparseVec {
	for i, s := range v {
		if s != 0 {
			dst = append(dst, VecEntry{Part: uint16(i), Seq: s})
		}
	}
	return dst
}

// DenseFromSparse expands a sparse vector into a dense one of length n,
// treating missing entries as zero (not DontCare — this is for commit
// vectors, which are totals, not dependencies).
func DenseFromSparse(v SparseVec, n int) []uint64 {
	out := make([]uint64, n)
	for _, e := range v {
		if int(e.Part) < n {
			out[e.Part] = e.Seq
		}
	}
	return out
}
