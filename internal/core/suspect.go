package core

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// Failure suspicion (DESIGN.md §14): the data plane sees a failure before
// any heartbeat does, because traffic that should come back around the ring
// stops coming back. A replica that sees it reports a suspicion to the
// orchestrator leader, which confirms it along the ring before it recovers
// anything. The heartbeat monitor stays as the backstop for an idle chain.

// evidence names what made a replica suspect a failure on the ring.
type evidence uint8

const (
	// commitStall: the head kept making logs, but its commit vector did not
	// advance for resendAfter. Its logs or the commits that answer them
	// stopped somewhere on the ring.
	commitStall evidence = 1 + iota
	// forwarderSilence: ring node 0 sent frames downstream, but no buffer
	// transfer came back for resendAfter. It covers a head whose logs never
	// go on the wire (a stateless middlebox's vec-less noops).
	forwarderSilence
)

// EncodeSuspicion builds the RPCSuspect request body: the reporter's ring
// position. The suspected path is the ring from the reporter around to
// itself, every hop its frames cross before the commits or transfers that
// answer them come back.
func EncodeSuspicion(reporter int) []byte {
	return binary.BigEndian.AppendUint16(nil, uint16(reporter))
}

// DecodeSuspicion parses an RPCSuspect request body.
func DecodeSuspicion(b []byte) (reporter int, err error) {
	if len(b) != 2 {
		return 0, ErrDecode
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

// suspector is the maintenance tick's view of the evidence; only that
// goroutine touches the plain fields.
type suspector struct {
	commitSum  uint64    // commit-vector sum at the last tick
	stallSince time.Time // first tick of the current commit stall, zero if none
	stallHead  uint64    // head-vector sum when the stall began
	retryAt    time.Time // a failed report is retried from here on

	// reported holds, per evidence kind, the start of the last episode the
	// leader took a report for: an episode is reported once. reporting is
	// the one report per reporter and path that may be outstanding.
	reported  [3]atomic.Int64
	reporting atomic.Bool
}

// suspect runs on every maintenance tick while a leader is known: it
// updates the evidence and reports an episode that has lasted resendAfter.
func (r *Replica) suspect(now time.Time, s *suspector) {
	leader := r.leader.Load()
	if leader == nil {
		return
	}
	wait := r.cfg.resendAfter()
	var ev evidence
	var since int64
	if r.head != nil {
		commit, head, lag := r.commitLag()
		switch {
		case !lag || commit > s.commitSum:
			s.stallSince = time.Time{}
		case s.stallSince.IsZero():
			s.stallSince, s.stallHead = now, head
		case head > s.stallHead && now.Sub(s.stallSince) >= wait:
			ev, since = commitStall, s.stallSince.UnixNano()
		}
		s.commitSum = commit
	}
	if r.fwd != nil && ev == 0 {
		if sent := r.fwd.sentAt.Load(); sent != 0 && now.UnixNano()-sent >= int64(wait) {
			ev, since = forwarderSilence, sent
		}
	}
	if ev == 0 || s.reported[ev].Load() == since || now.Before(s.retryAt) ||
		!s.reporting.CompareAndSwap(false, true) {
		return
	}
	s.retryAt = now.Add(wait) // the next try, should this one fail
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer s.reporting.Store(false)
		ctx, cancel := context.WithTimeout(r.life, time.Second)
		defer cancel()
		if _, err := r.fabric.Call(ctx, r.sim.ID(), *leader, RPCSuspect, EncodeSuspicion(r.idx)); err == nil {
			s.reported[ev].Store(since)
		}
	}()
}

// commitLag sums the commit vector of the head's middlebox and the head's
// dependency vector, and reports whether any partition's commit lags.
func (r *Replica) commitLag() (commit, head uint64, lag bool) {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	seen := r.commitSeen[r.head.MB()]
	for p := range r.head.vec {
		v := r.head.vec[p].Load()
		commit += seen[p]
		head += v
		lag = lag || seen[p] < v
	}
	return commit, head, lag
}

// setLeader points the replica's reports at the orchestrator leader's node.
func (r *Replica) setLeader(id netsim.NodeID) {
	if id != "" {
		r.leader.Store(&id)
	}
}

// handleProbe answers the leader's hop probe: a ping from this node to the
// next one on the suspected path, across the link between them, within
// the timeout the request carries.
func (r *Replica) handleProbe(_ netsim.NodeID, req []byte) ([]byte, error) {
	if len(req) < 8 {
		return nil, ErrDecode
	}
	timeout := time.Duration(binary.BigEndian.Uint64(req[:8]))
	if Ping(r.life, r.fabric, r.sim.ID(), netsim.NodeID(req[8:]), timeout) {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

// ProbeHop asks node, on behalf of caller, whether it reaches next within
// hop. alive reports whether node answered at all within call; reach,
// whether its ping to next got through.
func ProbeHop(ctx context.Context, fabric *netsim.Fabric, caller, node, next netsim.NodeID, hop, call time.Duration) (alive, reach bool) {
	ctx, cancel := context.WithTimeout(ctx, call)
	defer cancel()
	req := binary.BigEndian.AppendUint64(nil, uint64(hop))
	resp, err := fabric.Call(ctx, caller, node, rpcProbe, append(req, next...))
	if err != nil {
		return false, false
	}
	return true, len(resp) == 1 && resp[0] == 1
}
