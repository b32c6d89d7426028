package core

import (
	"time"
)

// mergeCommits folds commit vectors into the replica's view under a single
// commitMu acquisition. Retransmission buffers are pruned on an amortized
// schedule: commits arrive on every packet, but an O(buffer) scan per packet
// would dominate the data plane (the paper prunes "periodically", §4.1). Due
// prunes are collected under the lock and executed outside it.
func (r *Replica) mergeCommits(commits []Commit) {
	if len(commits) == 0 {
		return
	}
	var dueMB []uint16
	var dueSnap [][]uint64
	r.commitMu.Lock()
	for _, c := range commits {
		seen, ok := r.commitSeen[c.MB]
		if !ok {
			seen = make([]uint64, r.cfg.Partitions)
			r.commitSeen[c.MB] = seen
		}
		for _, e := range c.Vec {
			if int(e.Part) < len(seen) && e.Seq > seen[e.Part] {
				seen[e.Part] = e.Seq
			}
		}
		if r.buf != nil {
			// Any middlebox's commit can unblock held packets: elided markers
			// gate release on every group, not just wrapped ones.
			r.releaseDirty.Store(true)
		}
		r.pruneTick[c.MB]++
		if r.pruneTick[c.MB] >= 128 {
			r.pruneTick[c.MB] = 0
			dueMB = append(dueMB, c.MB)
			dueSnap = append(dueSnap, CloneDense(seen))
		}
	}
	r.commitMu.Unlock()
	for i, mb := range dueMB {
		if r.head != nil && r.head.MB() == mb {
			r.head.Buffer().Prune(dueSnap[i])
		}
		if f := r.followers[mb]; f != nil {
			f.Prune(dueSnap[i])
		}
	}
}

func (r *Replica) commitSnapshot(mb uint16) []uint64 {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	return CloneDense(r.commitSeen[mb])
}

// appendCommit is commitSnapshot in sparse form, appended to dst under the
// same lock: the buffer's commit view needs no dense clone.
func (r *Replica) appendCommit(dst SparseVec, mb uint16) SparseVec {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	return AppendSparse(dst, r.commitSeen[mb])
}

// commitEvery throttles tail commit dissemination and the buffer's
// commit-view transfers to once per this many packets; commitRefresh bounds
// the staleness in time at low rates.
const commitEvery = 16

// commitStale reports (and refreshes) whether the time-based commit
// dissemination deadline has passed at now, the caller's burst clock.
func (r *Replica) commitStale(now time.Time) bool {
	ns := now.UnixNano()
	last := r.lastCommit.Load()
	if ns-last < int64(commitRefresh) {
		return false
	}
	return r.lastCommit.CompareAndSwap(last, ns)
}
