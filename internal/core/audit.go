package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/ftsfc/ftc/internal/state"
)

// Audit taps: deterministic views of chain-wide replicated state, used by
// the equivalence tests and the chaos campaign harness to check FTC's
// correctness claims (§5.2: no committed state is lost, heads and followers
// converge) from outside the package.

// StoreDigest renders every replica store (heads and followers) as a sorted
// key=value listing — one deterministic string for the whole chain. Two
// runs that committed the same transactions produce identical digests
// regardless of scheduling, burst sizes, or recovery history.
func (c *Chain) StoreDigest() string {
	var sb strings.Builder
	dump := func(name string, b state.Backend) {
		ups := b.Snapshot()
		sort.Slice(ups, func(i, j int) bool { return ups[i].Key < ups[j].Key })
		fmt.Fprintf(&sb, "[%s]\n", name)
		for _, u := range ups {
			fmt.Fprintf(&sb, "%s=%x\n", u.Key, u.Value)
		}
	}
	ring := c.Ring()
	for j := 0; j < ring.N; j++ {
		dump(fmt.Sprintf("head%d", j), c.Replica(j).Head().Store())
		for _, i := range ring.Members(j)[1:] {
			dump(fmt.Sprintf("mb%d@follower%d", j, i), c.Replica(i).Follower(uint16(j)).Store())
		}
	}
	return sb.String()
}

// CheckConvergence verifies the replication invariant after quiescence:
// every follower store holds exactly its head's key set and values. It
// returns a descriptive error for the first divergence found, or nil.
func (c *Chain) CheckConvergence() error {
	ring := c.Ring()
	for j := 0; j < ring.N; j++ {
		hs := c.Replica(j).Head().Store().Snapshot()
		sort.Slice(hs, func(a, b int) bool { return hs[a].Key < hs[b].Key })
		for _, i := range ring.Members(j)[1:] {
			fs := c.Replica(i).Follower(uint16(j)).Store().Snapshot()
			sort.Slice(fs, func(a, b int) bool { return fs[a].Key < fs[b].Key })
			if len(hs) != len(fs) {
				return fmt.Errorf("core: mb %d: head has %d keys, follower@%d has %d", j, len(hs), i, len(fs))
			}
			for k := range hs {
				if hs[k].Key != fs[k].Key || string(hs[k].Value) != string(fs[k].Value) {
					return fmt.Errorf("core: mb %d key %q: head=%x follower@%d=%x",
						j, hs[k].Key, hs[k].Value, i, fs[k].Value)
				}
			}
		}
	}
	return nil
}

// Quiescent reports whether the chain has reached replication quiescence
// right now: every follower's MAX vector has caught up to its head's
// dependency vector, no replica is holding packets in its egress buffer,
// the forwarder has no pending piggyback logs, and no replica has a frame
// in hand — queued at its node, parked, or inside a bracket. It is a
// snapshot; use WaitQuiescent to block until the condition holds.
func (c *Chain) Quiescent() bool {
	ring := c.Ring()
	for j := 0; j < ring.N; j++ {
		hv := c.Replica(j).Head().Vector()
		for _, i := range ring.Members(j)[1:] {
			fm := c.Replica(i).Follower(uint16(j)).Max()
			for p := range hv {
				if fm[p] < hv[p] {
					return false
				}
			}
		}
	}
	for i := 0; i < c.Len(); i++ {
		r := c.Replica(i)
		if !r.idle() || r.HeldPackets() != 0 || r.ForwarderPending() != 0 {
			return false
		}
	}
	return true
}

// WaitQuiescent blocks until the chain quiesces (see Quiescent) or the
// timeout elapses, in which case it returns an error naming the first
// replication group still lagging. A chain that cannot quiesce after
// traffic stops has lost or wedged a committed log — the liveness half of
// the §5.2 recovery claim.
func (c *Chain) WaitQuiescent(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.Quiescent() {
			return nil
		}
		if time.Now().After(deadline) {
			return c.quiescenceError()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// quiescenceError describes what is still outstanding for WaitQuiescent's
// timeout report.
func (c *Chain) quiescenceError() error {
	ring := c.Ring()
	for j := 0; j < ring.N; j++ {
		hv := c.Replica(j).Head().Vector()
		for _, i := range ring.Members(j)[1:] {
			fm := c.Replica(i).Follower(uint16(j)).Max()
			for p := range hv {
				if fm[p] < hv[p] {
					return fmt.Errorf("core: chain did not quiesce: mb %d follower@%d partition %d at %d, head at %d",
						j, i, p, fm[p], hv[p])
				}
			}
		}
	}
	for i := 0; i < c.Len(); i++ {
		r := c.Replica(i)
		if h := r.HeldPackets(); h != 0 {
			return fmt.Errorf("core: chain did not quiesce: replica %d still holds %d packets", i, h)
		}
		if pnd := r.ForwarderPending(); pnd != 0 {
			return fmt.Errorf("core: chain did not quiesce: forwarder still has %d pending logs", pnd)
		}
		if !r.idle() {
			return fmt.Errorf("core: chain did not quiesce: replica %d has frames in hand (queued %v, parked %d)",
				i, r.sim.QueueDepths(nil), r.stats.Pending.Load())
		}
	}
	return fmt.Errorf("core: chain did not quiesce")
}
