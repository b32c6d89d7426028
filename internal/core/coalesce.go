package core

import (
	"sort"

	"github.com/ftsfc/ftc/internal/slab"
	"github.com/ftsfc/ftc/internal/state"
)

// coalescer folds a burst worker's consecutive write transactions into one
// coalesced piggyback log: per-key updates collapse to the last-written
// value (or a summed delta), and the log's Base..Vec pair records the whole
// sequence range it subsumes, so followers advance past the run in one
// apply. One coalescer lives in each worker; a run never spans a flush.
type coalescer struct {
	active bool
	mb     uint16
	vec    SparseVec // running last-seq per partition (insertion order while open)
	base   SparseVec // first seq per partition, parallel to vec
	upds   []state.Update

	// What finalize hands out, carved: a run's log waits in retransmission
	// buffers until a commit prunes it.
	vecs    slab.Slab[VecEntry]
	updates slab.Slab[state.Update]
}

// absorb folds a write log into the open run, opening one if needed. It
// reports false when the log cannot extend the run — some already-present
// partition's sequence does not follow consecutively (another worker
// interleaved a transaction on a shared partition) — in which case the
// caller finalizes the run and retries, which always succeeds.
func (c *coalescer) absorb(l *Log) bool {
	if c.active {
		if c.mb != l.MB {
			return false
		}
		for _, e := range l.Vec {
			if i := c.find(e.Part); i >= 0 && c.vec[i].Seq+1 != e.Seq {
				return false
			}
		}
	} else {
		c.active = true
		c.mb = l.MB
	}
	for _, e := range l.Vec {
		if i := c.find(e.Part); i >= 0 {
			c.vec[i].Seq = e.Seq
		} else {
			c.vec = append(c.vec, e)
			c.base = append(c.base, e)
		}
	}
	for i := range l.Updates {
		c.mergeUpdate(&l.Updates[i])
	}
	return true
}

func (c *coalescer) find(part uint16) int {
	for i := range c.vec {
		if c.vec[i].Part == part {
			return i
		}
	}
	return -1
}

// mergeUpdate applies last-writer-wins per key. Two deltas compose by
// summing (both measure against the pre-run value); any full write, delete,
// or delta-on-full collapses to the newest full form — a delta landing on a
// full write cannot stay a delta because the receiver's pre-run value is
// not its base.
func (c *coalescer) mergeUpdate(u *state.Update) {
	for i := range c.upds {
		m := &c.upds[i]
		if m.Key != u.Key {
			continue
		}
		if m.Flags&state.UpdateDelta != 0 && u.Flags&state.UpdateDelta != 0 {
			m.Delta += u.Delta
			m.Value = u.Value // sender-side updates always keep the full value
		} else {
			m.Value = u.Value
			m.Flags = u.Flags &^ state.UpdateDelta
			m.Delta = 0
		}
		return
	}
	c.upds = append(c.upds, *u)
}

// finalize closes the run and returns the coalesced log. The returned
// slices are the log's own (it outlives the packet: it enters the head's
// retransmission buffer and possibly downstream follower buffers).
func (c *coalescer) finalize() Log {
	l := Log{
		MB:      c.mb,
		Flags:   LogCoalesced,
		Vec:     c.vecs.Clone(c.vec),
		Base:    c.vecs.Clone(c.base),
		Updates: c.updates.Clone(c.upds),
	}
	sort.Sort(vecPair{l.Vec, l.Base})
	c.reset()
	return l
}

func (c *coalescer) reset() {
	c.active = false
	c.vec = c.vec[:0]
	c.base = c.base[:0]
	for i := range c.upds {
		c.upds[i] = state.Update{} // drop value references
	}
	c.upds = c.upds[:0]
}

// vecPair sorts a (Vec, Base) pair in tandem by partition so the encoded
// log meets SparseVec's sortedness contract.
type vecPair struct{ vec, base SparseVec }

func (p vecPair) Len() int           { return len(p.vec) }
func (p vecPair) Less(i, j int) bool { return p.vec[i].Part < p.vec[j].Part }
func (p vecPair) Swap(i, j int) {
	p.vec[i], p.vec[j] = p.vec[j], p.vec[i]
	p.base[i], p.base[j] = p.base[j], p.base[i]
}
