package orch

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
)

// Data-plane suspicions (DESIGN.md §14). A replica that sees ring traffic
// stop coming back reports it to the leader (core.EncodeSuspicion). The leader
// confirms it along the suspected path before it recovers anything: the
// suspicion is only the trigger, the probe is the verdict.

var errNotLeader = errors.New("orch: not the leader")

// handleSuspect takes a replica's report. Only a leading member accepts
// it, and only from the node that holds the reporter's ring position now:
// a replaced replica's last report is stale. Confirmation runs on the
// stint (suspectLoop), so the reporter waits for no probe.
func (m *Member) handleSuspect(from netsim.NodeID, req []byte) ([]byte, error) {
	reporter, err := core.DecodeSuspicion(req)
	if err != nil {
		return nil, err
	}
	ls := m.currentStint()
	if ls == nil {
		return nil, errNotLeader
	}
	if reporter >= m.o.chain.Len() || m.o.chain.RingID(reporter) != from {
		return nil, nil
	}
	select {
	case ls.suspicions <- reporter:
	default: // every position's report is queued already
	}
	return nil, nil
}

// suspectLoop starts one confirmation per reporter at a time; a report
// whose reporter is already being confirmed adds nothing.
func (ls *leaderStint) suspectLoop() {
	defer ls.done()
	for {
		select {
		case <-ls.stop:
			return
		case <-ls.m.stopped:
			return
		case from := <-ls.suspicions:
			ls.hmu.Lock()
			busy := ls.confirming[from]
			ls.confirming[from] = true
			ls.hmu.Unlock()
			if !busy {
				ls.begin(1)
				go ls.confirm(from)
			}
		}
	}
}

// confirm probes the ring from position from around to itself and acts on
// the verdict. A node that does not answer the leader is recovered at
// once: two independent signals agree. A node that answers but that its
// predecessor cannot reach sits behind a dead link; it is fail-stopped
// and replaced only once every probe for the heartbeat monitor's own
// patience (Misses × HeartbeatEvery) has failed, and only while no other
// recovery runs, so a short partition heals instead of costing a replica
// and a partition never adds a failure to one in progress. A path that
// answers end to end refutes the suspicion.
func (ls *leaderStint) confirm(from int) {
	defer ls.done()
	defer func() {
		ls.hmu.Lock()
		delete(ls.confirming, from)
		ls.hmu.Unlock()
	}()
	o := ls.m.o
	patience := time.Duration(o.cfg.Misses) * o.cfg.HeartbeatEvery
	var cut netsim.NodeID
	var cutSince time.Time
	for !ls.gone() {
		idx, id, linkOnly := ls.probePath(from)
		if idx < 0 {
			o.refuted.Inc()
			return
		}
		if !linkOnly {
			o.detected.Inc()
			ls.recoverPosition(idx, id)
			return
		}
		if id != cut {
			cut, cutSince = id, time.Now()
		}
		if time.Since(cutSince) >= patience && ls.idle() {
			if err := o.chain.FailStop(idx, id, ls.term); err != nil {
				ls.depose()
				return
			}
			o.detected.Inc()
			ls.recoverPosition(idx, id)
			return
		}
		select {
		case <-ls.stop:
			return
		case <-ls.m.stopped:
			return
		case <-time.After(o.cfg.HeartbeatEvery):
		}
	}
}

// probePath asks every ring node whether it reaches its successor, all at
// once, and returns the failed position on the ring from from around to
// itself: the first node that does not answer the leader, else the first
// that its predecessor cannot reach (linkOnly), else -1. A hop's ping gets
// the heartbeat monitor's whole budget (Misses × HeartbeatTimeout): a slow
// link is not a dead one.
func (ls *leaderStint) probePath(from int) (idx int, id netsim.NodeID, linkOnly bool) {
	o := ls.m.o
	hop := time.Duration(o.cfg.Misses) * o.cfg.HeartbeatTimeout
	n := o.chain.Len()
	ids := make([]netsim.NodeID, n)
	for i := range ids {
		ids[i] = o.chain.RingID(i)
	}
	alive, reach := make([]bool, n), make([]bool, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			alive[i], reach[i] = core.ProbeHop(context.Background(), o.fabric, ls.m.node.ID(),
				ids[i], ids[(i+1)%n], hop, o.cfg.HeartbeatTimeout+hop)
		}(i)
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if i := (from + k) % n; !alive[i] {
			return i, ids[i], false
		}
	}
	for k := 0; k < n; k++ {
		if i := (from + k) % n; !reach[i] {
			j := (i + 1) % n
			return j, ids[j], true
		}
	}
	return -1, "", false
}

// idle reports whether no recovery runs on the stint.
func (ls *leaderStint) idle() bool {
	ls.hmu.Lock()
	defer ls.hmu.Unlock()
	return len(ls.handling) == 0
}
