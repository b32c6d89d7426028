package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// Control-plane RPC names. Each replica runs a control daemon that serves
// repair requests from group peers and state-fetch requests during failure
// recovery (§6: "a replica consists of control and data plane modules").
const (
	rpcRepair   = "ftc.repair"
	rpcFetch    = "ftc.fetch"
	rpcSetGen   = "ftc.setgen"
	rpcSetRoute = "ftc.setroute"
	rpcPing     = "ftc.ping"
	rpcFence    = "ftc.fence"
	rpcProbe    = "ftc.probe"
)

func (r *Replica) registerControl() {
	r.sim.RegisterRPC(rpcRepair, r.handleRepair)
	r.sim.RegisterRPC(rpcFetch, r.handleFetch)
	r.sim.RegisterRPC(rpcSetGen, r.handleSetGen)
	r.sim.RegisterRPC(rpcSetRoute, r.handleSetRoute)
	r.sim.RegisterRPC(rpcFence, r.handleFence)
	r.sim.RegisterRPC(rpcProbe, r.handleProbe)
	r.sim.RegisterRPC(rpcPing, func(netsim.NodeID, []byte) ([]byte, error) {
		return []byte{1}, nil
	})
}

// checkCtrlTerm rejects a routing/generation command whose controller term
// is below the replica's fence floor: a deposed orchestrator leader
// replaying a stale recovery command over the control plane (DESIGN.md
// §14). Term 0 is the legacy unfenced dialect and passes until a fence is
// raised.
func (r *Replica) checkCtrlTerm(term uint64) error {
	if term < r.ctrlTerm.Load() {
		r.stats.FencedCmds.Add(1)
		return ErrFenced
	}
	return nil
}

// FenceTerm raises the replica's controller fence floor to term (monotonic;
// lower values are no-ops) and returns the resulting floor. ftcd presets it
// at boot with -min-controller-term so a restarted replica cannot be
// adopted by a leader deposed while it was down.
func (r *Replica) FenceTerm(term uint64) uint64 {
	for {
		cur := r.ctrlTerm.Load()
		if term <= cur {
			return cur
		}
		if r.ctrlTerm.CompareAndSwap(cur, term) {
			return term
		}
	}
}

// ControllerTerm returns the replica's current controller fence floor.
func (r *Replica) ControllerTerm() uint64 { return r.ctrlTerm.Load() }

// handleFence raises the fence floor on behalf of a newly elected
// orchestrator leader and answers with the resulting floor, so the leader
// learns if an even newer term already claimed the replica.
func (r *Replica) handleFence(_ netsim.NodeID, req []byte) ([]byte, error) {
	if len(req) != 8 {
		return nil, ErrDecode
	}
	floor := r.FenceTerm(binary.BigEndian.Uint64(req))
	return binary.BigEndian.AppendUint64(nil, floor), nil
}

// handleRepair serves missing piggyback logs to a group successor whose MAX
// lags behind this replica's retransmission buffer.
func (r *Replica) handleRepair(_ netsim.NodeID, req []byte) ([]byte, error) {
	mb, max, err := decodeRepairReq(req)
	if err != nil {
		return nil, err
	}
	var logs []Log
	switch {
	case r.head != nil && r.head.MB() == mb:
		logs = r.head.Buffer().Missing(max)
	case r.followers[mb] != nil:
		logs = r.followers[mb].Missing(max)
	default:
		return nil, fmt.Errorf("core: replica %d not in group of mb %d", r.idx, mb)
	}
	// Full values forced: the requester may have just recovered from a
	// snapshot that partially overlaps a coalesced run, where a delta-form
	// update cannot be applied (see Follower.applyCoalescedLocked).
	m := &Message{FullValues: true, Gen: r.gen.Load(), Logs: logs}
	return m.Encode(make([]byte, 0, m.LenEstimate())), nil
}

// handleFetch serves a middlebox's full replica state to a recovering
// replacement (§5.2). The source stops admitting stale in-flight effects by
// snapshotting under the follower/head locks.
func (r *Replica) handleFetch(_ netsim.NodeID, req []byte) ([]byte, error) {
	mb, err := decodeFetchReq(req)
	if err != nil {
		return nil, err
	}
	fs := &FetchState{MB: mb}
	switch {
	case r.head != nil && r.head.MB() == mb:
		// The fetch gate excludes in-flight transactions (and whole worker
		// bursts) so vector, buffer, and snapshot form one consistent cut: a
		// torn cut would double-apply delta updates or lose a burst's logs
		// at the recovering replica.
		h := r.head
		h.fetchMu.Lock()
		fs.Vector = h.Vector()
		fs.Logs = h.Buffer().all()
		fs.Snapshot = h.Store().Snapshot()
		h.fetchMu.Unlock()
	case r.followers[mb] != nil:
		fs.Vector, fs.Logs, fs.Snapshot = r.followers[mb].Fetch()
	default:
		return nil, fmt.Errorf("core: replica %d has no state for mb %d", r.idx, mb)
	}
	return encodeFetchState(fs), nil
}

// handleSetGen fences on the leading controller term, then installs the
// chain generation.
func (r *Replica) handleSetGen(_ netsim.NodeID, req []byte) ([]byte, error) {
	if len(req) != 12 {
		return nil, ErrDecode
	}
	if err := r.checkCtrlTerm(binary.BigEndian.Uint64(req[:8])); err != nil {
		return nil, err
	}
	r.SetGen(binary.BigEndian.Uint32(req[8:]))
	return nil, nil
}

// handleSetRoute updates one ring position's fabric ID: "the orchestrator
// updates routing rules in the network to steer traffic through the new
// replica" (§4.1). The leading controller term fences out rerouting
// commands from deposed leaders.
func (r *Replica) handleSetRoute(_ netsim.NodeID, req []byte) ([]byte, error) {
	if len(req) < 10 {
		return nil, ErrDecode
	}
	if err := r.checkCtrlTerm(binary.BigEndian.Uint64(req[:8])); err != nil {
		return nil, err
	}
	idx := int(binary.BigEndian.Uint16(req[8:10]))
	r.SetRoute(idx, netsim.NodeID(req[10:]))
	return nil, nil
}

// EncodeSetRoute builds the request body for the rpcSetRoute handler. term
// is the issuing controller's fencing term (0 for unfenced legacy callers).
func EncodeSetRoute(term uint64, idx int, id netsim.NodeID) []byte {
	b := binary.BigEndian.AppendUint64(nil, term)
	b = binary.BigEndian.AppendUint16(b, uint16(idx))
	return append(b, []byte(id)...)
}

// EncodeSetGen builds the request body for the rpcSetGen handler. term is
// the issuing controller's fencing term (0 for unfenced legacy callers).
func EncodeSetGen(term uint64, gen uint32) []byte {
	b := binary.BigEndian.AppendUint64(nil, term)
	return binary.BigEndian.AppendUint32(b, gen)
}

// EncodeFence builds the request body for the rpcFence handler.
func EncodeFence(term uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, term)
}

// Names of the control RPCs, exported for the orchestrator.
const (
	RPCRepair   = rpcRepair
	RPCFetch    = rpcFetch
	RPCSetGen   = rpcSetGen
	RPCSetRoute = rpcSetRoute
	RPCPing     = rpcPing
	RPCFence    = rpcFence
	// RPCSuspect carries a replica's failure suspicion (EncodeSuspicion)
	// to the orchestrator leader, which serves it.
	RPCSuspect = "ftc.suspect"
)

// FetchFrom performs a recovery state fetch from the replica at src for
// middlebox mb, on behalf of caller (a fabric node ID).
func FetchFrom(ctx context.Context, fabric *netsim.Fabric, caller, src netsim.NodeID, mb uint16) (*FetchState, error) {
	resp, err := fabric.Call(ctx, caller, src, rpcFetch, encodeFetchReq(mb))
	if err != nil {
		return nil, err
	}
	return decodeFetchState(resp)
}

// Recover initializes this (new, not yet started) replica's state from the
// alive members of each replication group it belongs to, following §5.2:
//   - for the group it heads, fetch from the immediate successor and adopt
//     the successor's MAX as the head's dependency vector;
//   - for groups it follows, fetch from the immediate predecessor.
//
// Under simultaneous failures a preferred source may itself be dead
// ("if the contacted replica fails during recovery … re-initializes the new
// replica with the new set of alive replicas"); Recover falls back to the
// next alive group member in log-propagation order. Any gap introduced by
// fetching from a staler successor is closed by the normal repair path once
// traffic resumes.
//
// peerID maps ring positions to current fabric IDs. Returns the number of
// replication groups recovered.
func (r *Replica) Recover(ctx context.Context, peerID func(ringIdx int) netsim.NodeID) (int, error) {
	recovered := 0
	if r.head != nil {
		mb := int(r.head.MB())
		if r.cfg.F == 0 {
			recovered++ // the head is the whole group; nothing to fetch
		} else {
			// Successors in group order: the immediate successor has the
			// freshest state after the head itself.
			var candidates []int
			for _, m := range r.ring.Members(mb)[1:] {
				candidates = append(candidates, m)
			}
			fs, err := r.fetchFirst(ctx, peerID, uint16(mb), candidates)
			if err != nil {
				return recovered, fmt.Errorf("recovering head state for mb %d: %w", mb, err)
			}
			r.head.restoreFrom(fs)
			recovered++
		}
	}
	for mb, f := range r.followers {
		candidates := r.followerSources(int(mb))
		if len(candidates) == 0 {
			continue
		}
		fs, err := r.fetchFirst(ctx, peerID, mb, candidates)
		if err != nil {
			return recovered, fmt.Errorf("recovering follower state for mb %d: %w", mb, err)
		}
		f.Store().Restore(fs.Snapshot)
		f.RestoreMax(fs.Vector)
		f.Buffer().restore(fs.Logs)
		recovered++
	}
	return recovered, nil
}

// restoreFrom installs a follower's fetched state as the head's own. The
// source may hold a coalesced run it installed only in part (Partial, in
// Follower.applyCoalescedLocked): the run is in its buffer, but its MAX and
// snapshot lack the partitions left behind. The head installs those
// itself, replaying the buffer while an apply advances a MAX; otherwise it
// would resend writes its own store lacks.
func (h *Head) restoreFrom(fs *FetchState) {
	h.Store().Restore(fs.Snapshot)
	f := NewFollower(h.MB(), h.Store())
	f.RestoreMax(fs.Vector)
	for progress := true; progress; {
		progress = false
		for _, l := range fs.Logs {
			progress = f.Apply(l).took() || progress
		}
	}
	h.RestoreVector(f.max)
	h.Buffer().restore(fs.Logs)
}

// followerSources orders the candidate state sources for recovering this
// replica's follower role in middlebox mb's group: the immediate
// predecessor first (it has the same or later state, per the log
// propagation invariant), then earlier predecessors up to the head, then
// successors.
func (r *Replica) followerSources(mb int) []int {
	members := r.ring.Members(mb)
	var myPos int
	for k, m := range members {
		if m == r.idx {
			myPos = k
			break
		}
	}
	var out []int
	for k := myPos - 1; k >= 0; k-- {
		out = append(out, members[k])
	}
	for k := myPos + 1; k < len(members); k++ {
		out = append(out, members[k])
	}
	return out
}

// fetchFirst tries each candidate ring position in order, returning the
// first successful fetch. Each candidate gets an equal slice of the
// remaining deadline, not the whole budget: a candidate cut off by a
// network partition would otherwise eat the full recovery timeout and leave
// the healthy fallback candidates an already-expired context.
func (r *Replica) fetchFirst(ctx context.Context, peerID func(int) netsim.NodeID, mb uint16, candidates []int) (*FetchState, error) {
	var lastErr error
	for i, c := range candidates {
		cctx, cancel := ctx, context.CancelFunc(func() {})
		if dl, ok := ctx.Deadline(); ok && len(candidates) > i+1 {
			slice := time.Until(dl) / time.Duration(len(candidates)-i)
			cctx, cancel = context.WithTimeout(ctx, slice)
		}
		fs, err := FetchFrom(cctx, r.fabric, r.sim.ID(), peerID(c), mb)
		cancel()
		if err == nil {
			return fs, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: no candidates for mb %d", mb)
	}
	return nil, lastErr
}

// Ping checks liveness of a replica's control daemon.
func Ping(ctx context.Context, fabric *netsim.Fabric, caller, dst netsim.NodeID, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	_, err := fabric.Call(ctx, caller, dst, rpcPing, nil)
	return err == nil
}
