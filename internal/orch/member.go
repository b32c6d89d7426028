package orch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
)

// Member RPC names, registered on every member's fabric node.
const (
	// RPCVote requests a leadership vote (voteReq -> voteResp).
	RPCVote = "orch.vote"
	// RPCAppend replicates log entries (appendReq -> appendResp).
	RPCAppend = "orch.append"
	// RPCLease renews the leader's failure-detection lease
	// (leaseReq -> leaseResp).
	RPCLease = "orch.lease"
	// RPCLogRead returns a log suffix for catch-up and audits
	// (logReadReq -> logReadResp).
	RPCLogRead = "orch.logread"
)

var (
	errDeposed  = errors.New("orch: leader deposed by a newer term")
	errNoQuorum = errors.New("orch: lost quorum")
	errCrashed  = errors.New("orch: member crashed")
)

type voteReq struct {
	Term      uint64 `json:"term"`
	Candidate int    `json:"candidate"`
}

type voteResp struct {
	Granted bool   `json:"granted"`
	Term    uint64 `json:"term"`
	// LogLen lets the candidate find the longest log among its granting
	// majority and catch up before leading, so no majority-acknowledged
	// entry is lost across a takeover.
	LogLen int `json:"logLen"`
}

type appendReq struct {
	Term uint64 `json:"term"`
	// PrevLen is the leader's log length before these entries: the
	// follower accepts only if its own log is at least that long,
	// truncating any longer (stale, never-acknowledged) suffix first.
	PrevLen int     `json:"prevLen"`
	Entries []Entry `json:"entries"`
}

type appendResp struct {
	OK     bool   `json:"ok"`
	Term   uint64 `json:"term"`
	LogLen int    `json:"logLen"`
}

type leaseReq struct {
	Term   uint64 `json:"term"`
	Leader int    `json:"leader"`
}

type leaseResp struct {
	OK   bool   `json:"ok"`
	Term uint64 `json:"term"`
}

type logReadReq struct {
	From int `json:"from"`
}

type logReadResp struct {
	Entries []Entry `json:"entries"`
	Term    uint64  `json:"term"`
	LogLen  int     `json:"logLen"`
}

// Member is one node of the orchestrator. Exactly one member
// leads at a time (enforced by term votes plus the chain fence); the rest
// follow, replicating the command log and watching the leader's lease.
type Member struct {
	o    *Orchestrator
	rank int
	node *netsim.Node

	mu      sync.Mutex
	term    uint64 // highest term seen
	granted uint64 // highest term this member granted a vote for
	log     []Entry
	leaseAt time.Time // last leader contact (lease or append)

	crashed atomic.Bool

	leaderMu sync.Mutex
	leader   *leaderStint // non-nil while this member leads

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// NodeID is the member's fabric node id.
func (m *Member) NodeID() netsim.NodeID { return m.node.ID() }

// Crashed reports whether the member has been fail-stopped.
func (m *Member) Crashed() bool { return m.crashed.Load() }

// Term returns the highest term this member has seen.
func (m *Member) Term() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.term
}

// Log returns a copy of the member's log.
func (m *Member) Log() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Entry(nil), m.log...)
}

// Leading reports whether this member currently holds an active stint.
func (m *Member) Leading() bool { return m.currentStint() != nil }

func (m *Member) currentStint() *leaderStint {
	m.leaderMu.Lock()
	defer m.leaderMu.Unlock()
	if m.leader != nil && !m.leader.gone() {
		return m.leader
	}
	return nil
}

// Crash fail-stops the member: its fabric node dies (all in-flight RPCs to
// it fail), any leader stint is deposed, and every loop is told to exit.
// Crash only signals — it never joins goroutines, because the chaos rider
// calls it from inside the victim's own recovery path (via OnPhase).
// Orchestrator.Stop does the joining.
func (m *Member) Crash() {
	m.crashed.Store(true)
	m.node.Crash()
	m.leaderMu.Lock()
	ls := m.leader
	m.leaderMu.Unlock()
	if ls != nil {
		ls.depose()
	}
	m.stopOnce.Do(func() { close(m.stopped) })
}

// stop terminates a live member cleanly (no crash semantics).
func (m *Member) stop() {
	if ls := m.currentStint(); ls != nil {
		ls.depose()
	}
	m.stopOnce.Do(func() { close(m.stopped) })
	m.wg.Wait()
}

func (m *Member) register() {
	m.node.RegisterRPC(RPCVote, m.handleVote)
	m.node.RegisterRPC(RPCAppend, m.handleAppend)
	m.node.RegisterRPC(RPCLease, m.handleLease)
	m.node.RegisterRPC(RPCLogRead, m.handleLogRead)
	m.node.RegisterRPC(core.RPCSuspect, m.handleSuspect)
}

func (m *Member) handleVote(_ netsim.NodeID, req []byte) ([]byte, error) {
	var q voteReq
	if err := json.Unmarshal(req, &q); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := voteResp{Term: m.term, LogLen: len(m.log)}
	// Grant at most one vote per term: the candidate's term must beat
	// both every term we have seen and every term we already granted.
	if q.Term > m.term && q.Term > m.granted {
		m.term = q.Term
		m.granted = q.Term
		resp.Granted = true
		resp.Term = q.Term
		// Standing for election counts as leader silence ending: reset
		// the lease so this member does not immediately stand too.
		m.leaseAt = time.Now()
	}
	return json.Marshal(resp)
}

func (m *Member) handleAppend(_ netsim.NodeID, req []byte) ([]byte, error) {
	var q appendReq
	if err := json.Unmarshal(req, &q); err != nil {
		return nil, err
	}
	m.mu.Lock()
	resp := appendResp{Term: m.term, LogLen: len(m.log)}
	if q.Term < m.term || q.PrevLen < 0 {
		// A stale leader, or a malformed prefix length: refuse before
		// touching term, lease or log.
		m.mu.Unlock()
		return json.Marshal(resp)
	}
	if q.Term > m.term {
		m.term = q.Term
	}
	m.leaseAt = time.Now()
	if q.PrevLen > len(m.log) {
		// Missing entries; leader will retry from our length.
		resp.Term = m.term
		m.mu.Unlock()
		return json.Marshal(resp)
	}
	if q.PrevLen < len(m.log) {
		// A stale suffix from a deposed leader that never reached a
		// majority: the newer-term leader's history wins.
		m.log = m.log[:q.PrevLen]
	}
	m.log = append(m.log, q.Entries...)
	resp.OK = true
	resp.Term = m.term
	resp.LogLen = len(m.log)
	m.mu.Unlock()
	m.deposeBelow(q.Term)
	return json.Marshal(resp)
}

func (m *Member) handleLease(_ netsim.NodeID, req []byte) ([]byte, error) {
	var q leaseReq
	if err := json.Unmarshal(req, &q); err != nil {
		return nil, err
	}
	m.mu.Lock()
	resp := leaseResp{Term: m.term}
	if q.Term >= m.term {
		m.term = q.Term
		m.leaseAt = time.Now()
		resp.OK = true
		resp.Term = q.Term
	}
	m.mu.Unlock()
	m.deposeBelow(q.Term)
	return json.Marshal(resp)
}

func (m *Member) handleLogRead(_ netsim.NodeID, req []byte) ([]byte, error) {
	var q logReadReq
	if err := json.Unmarshal(req, &q); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := logReadResp{Term: m.term, LogLen: len(m.log)}
	if q.From < 0 {
		q.From = 0
	}
	if q.From < len(m.log) {
		resp.Entries = append([]Entry(nil), m.log[q.From:]...)
	}
	return json.Marshal(resp)
}

// deposeBelow steps this member down if it is leading at a term older than
// seen — a deposed leader that learns of its successor from an incoming
// RPC.
func (m *Member) deposeBelow(seen uint64) {
	m.leaderMu.Lock()
	ls := m.leader
	m.leaderMu.Unlock()
	if ls != nil && ls.term < seen {
		ls.depose()
	}
}

// observeTerm records a higher term learned from a response.
func (m *Member) observeTerm(t uint64) {
	m.mu.Lock()
	if t > m.term {
		m.term = t
	}
	m.mu.Unlock()
	m.deposeBelow(t)
}

// run is the follower loop: it watches the leader lease and stands for
// election after rank-staggered silence. It exits when the member stops or
// crashes — a crashed orchestrator must not keep goroutines alive.
func (m *Member) run() {
	defer m.wg.Done()
	period := m.o.cfg.LeaseEvery
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.stopped:
			return
		case <-t.C:
		}
		if m.crashed.Load() || m.Leading() {
			continue
		}
		m.mu.Lock()
		idle := time.Since(m.leaseAt)
		m.mu.Unlock()
		if idle >= m.electionAfter() {
			m.runElection()
		}
	}
}

// electionAfter staggers candidacy by rank so members stand one at a time
// instead of splitting votes; the stagger step dwarfs scheduler jitter
// even under the race detector.
func (m *Member) electionAfter() time.Duration {
	return m.o.cfg.ElectionAfter + time.Duration(m.rank)*m.o.cfg.ElectionAfter/2
}

func (m *Member) callTimeout() time.Duration {
	to := 4 * m.o.cfg.LeaseEvery
	if to < 40*time.Millisecond {
		to = 40 * time.Millisecond
	}
	return to
}

// call sends a member-to-member RPC with JSON bodies.
func (m *Member) call(dst *Member, name string, req, resp any) error {
	if m.crashed.Load() {
		return errCrashed
	}
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.callTimeout())
	defer cancel()
	out, err := m.o.fabric.Call(ctx, m.node.ID(), dst.node.ID(), name, b)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, resp)
}

// runElection stands for leadership: term+1, majority of votes, catch up
// from the longest log among the granting majority, then lead.
func (m *Member) runElection() {
	m.mu.Lock()
	term := m.term + 1
	if term <= m.granted {
		term = m.granted + 1
	}
	m.term = term
	m.granted = term // vote for self
	myLen := len(m.log)
	m.mu.Unlock()

	votes := 1
	bestLen, bestPeer := myLen, -1
	for _, p := range m.o.members {
		if p == m {
			continue
		}
		var resp voteResp
		if err := m.call(p, RPCVote, voteReq{Term: term, Candidate: m.rank}, &resp); err != nil {
			continue
		}
		if !resp.Granted {
			if resp.Term > term {
				m.observeTerm(resp.Term)
				return
			}
			continue
		}
		votes++
		if resp.LogLen > bestLen {
			bestLen, bestPeer = resp.LogLen, p.rank
		}
	}
	if votes*2 <= len(m.o.members) {
		return
	}
	if bestPeer >= 0 {
		m.pullLog(m.o.members[bestPeer])
	}
	m.becomeLeader(term)
}

// pullLog copies the suffix of a longer peer log. Entry indices make the
// splice verifiable; on any mismatch the whole log is refetched.
func (m *Member) pullLog(p *Member) {
	m.mu.Lock()
	from := len(m.log)
	m.mu.Unlock()
	var resp logReadResp
	if err := m.call(p, RPCLogRead, logReadReq{From: from}, &resp); err != nil {
		return
	}
	if len(resp.Entries) > 0 && resp.Entries[0].Index != uint64(from) {
		var full logReadResp
		if err := m.call(p, RPCLogRead, logReadReq{From: 0}, &full); err != nil {
			return
		}
		resp = full
		from = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if from > len(m.log) {
		return // log changed underneath; a later election will retry
	}
	if from+len(resp.Entries) > len(m.log) {
		m.log = append(m.log[:from], resp.Entries...)
	}
}

// becomeLeader installs a new stint at term and runs the takeover
// sequence: replicate the election record, fence the chain against the
// deposed leader (which points the replicas' suspicions here), announce,
// resume orphaned recoveries, then start the heartbeat monitors, the
// suspicion intake and the lease loop.
func (m *Member) becomeLeader(term uint64) {
	m.leaderMu.Lock()
	select {
	case <-m.stopped:
		// The orchestrator is shutting down; a new stint must not start
		// monitors (or mutate the chain) under the post-campaign audit.
		m.leaderMu.Unlock()
		return
	default:
	}
	if m.crashed.Load() || (m.leader != nil && !m.leader.gone()) {
		m.leaderMu.Unlock()
		return
	}
	ls := &leaderStint{
		m:          m,
		term:       term,
		stop:       make(chan struct{}),
		handling:   make(map[int]bool),
		suspicions: make(chan int, m.o.chain.Len()),
		confirming: make(map[int]bool),
	}
	m.leader = ls
	m.leaderMu.Unlock()

	// The election record is the quorum check: if a majority will not
	// acknowledge this term, the stint never becomes visible.
	if err := ls.replicate(Command{Kind: CmdElect, Term: term, Member: m.rank}); err != nil {
		ls.depose()
		return
	}
	// Fence the data plane: every recovery command from now on carries
	// this term, and the chain rejects anything older.
	if !m.o.chain.FenceController(term, m.node.ID()) {
		ls.depose()
		return
	}
	m.o.noteLeader(term, m.rank) // chaos rider may crash us right here
	if ls.gone() {
		return
	}

	ls.begin(2)
	go ls.leaseLoop()
	go ls.suspectLoop()
	for i := 0; i < m.o.chain.Len(); i++ {
		ls.begin(1)
		go ls.monitor(i)
	}
	ls.begin(1)
	go ls.resumeOrphans()
}

// view replays this member's log.
func (m *Member) view() LogView {
	return Replay(m.Log())
}

// leaderStint is one continuous period of leadership by one member at one
// term. All monitoring and recovery state hangs off the stint so a depose
// cleanly abandons it.
type leaderStint struct {
	m    *Member
	term uint64

	stopOnce sync.Once
	stop     chan struct{}

	hmu        sync.Mutex
	handling   map[int]bool
	confirming map[int]bool // reporters whose suspicion is being confirmed

	// suspicions holds reporters' ring positions for suspectLoop, room for
	// one per position: a report that finds it full is already queued.
	suspicions chan int

	wg sync.WaitGroup
}

func (ls *leaderStint) gone() bool {
	select {
	case <-ls.stop:
		return true
	case <-ls.m.stopped:
		return true
	default:
		return ls.m.crashed.Load()
	}
}

// depose retires the stint: loops exit, recoveries in flight notice at
// their next step and abandon (leaving any spawned replica registered for
// the successor to resume).
func (ls *leaderStint) depose() {
	ls.stopOnce.Do(func() { close(ls.stop) })
}

// begin tracks a stint goroutine on both the stint and the member, so
// Orchestrator.Stop can join everything.
func (ls *leaderStint) begin(n int) {
	ls.wg.Add(n)
	ls.m.wg.Add(n)
}

func (ls *leaderStint) done() {
	ls.wg.Done()
	ls.m.wg.Done()
}

// leaseLoop renews followers' leases; losing a majority or meeting a newer
// term deposes the stint.
func (ls *leaderStint) leaseLoop() {
	defer ls.done()
	t := time.NewTicker(ls.m.o.cfg.LeaseEvery)
	defer t.Stop()
	for {
		select {
		case <-ls.stop:
			return
		case <-ls.m.stopped:
			return
		case <-t.C:
		}
		if ls.gone() {
			return
		}
		for _, p := range ls.m.o.members {
			if p == ls.m {
				continue
			}
			var resp leaseResp
			if err := ls.m.call(p, RPCLease, leaseReq{Term: ls.term, Leader: ls.m.rank}, &resp); err != nil {
				continue
			}
			if !resp.OK && resp.Term > ls.term {
				ls.m.observeTerm(resp.Term)
				ls.depose()
				return
			}
		}
	}
}

// monitor is the per-ring-position failure detector, owned by the stint: a
// deposed or crashed leader's detectors exit instead of double-driving
// recoveries.
func (ls *leaderStint) monitor(idx int) {
	defer ls.done()
	m := ls.m
	cfg := m.o.cfg
	t := time.NewTicker(cfg.HeartbeatEvery)
	defer t.Stop()
	misses, missed := 0, netsim.NodeID("")
	for {
		select {
		case <-ls.stop:
			return
		case <-m.stopped:
			return
		case <-t.C:
		}
		if ls.gone() {
			return
		}
		// A miss counts only against the node it pinged: once a recovery
		// (this detector's or a manual Recover) reroutes the position, the
		// count starts afresh.
		target := m.o.chain.RingID(idx)
		if target != missed {
			misses, missed = 0, target
		}
		if core.Ping(context.Background(), m.o.fabric, m.node.ID(), target, cfg.HeartbeatTimeout) {
			misses = 0
			continue
		}
		misses++
		if misses < cfg.Misses {
			continue
		}
		misses = 0
		m.o.detected.Inc()
		ls.recoverPosition(idx, target)
	}
}

// resumeOrphans continues recoveries a deposed or dead predecessor left
// mid-flight, as recorded in the replicated log.
func (ls *leaderStint) resumeOrphans() {
	defer ls.done()
	view := ls.m.view()
	for ring := range view.InFlight {
		if ls.gone() {
			return
		}
		ls.recoverPosition(ring, "")
	}
}

// errBusy reports a recovery already in flight for the position on this
// stint, or one that already replaced the node a detector declared failed.
var errBusy = errors.New("orch: recovery already in flight")

// recoverPosition runs (or resumes) one recovery under the stint,
// deduplicating concurrent triggers for the same position. A detector
// passes the node it declared failed (failed != ""): if a concurrent
// recovery rerouted the position away from that node before this one got
// the position, the failure is already repaired.
func (ls *leaderStint) recoverPosition(idx int, failed netsim.NodeID) (RecoveryReport, error) {
	ls.hmu.Lock()
	if ls.handling[idx] {
		ls.hmu.Unlock()
		return RecoveryReport{}, errBusy
	}
	ls.handling[idx] = true
	ls.hmu.Unlock()
	defer func() {
		ls.hmu.Lock()
		delete(ls.handling, idx)
		ls.hmu.Unlock()
	}()
	if failed != "" && ls.m.o.chain.RingID(idx) != failed {
		return RecoveryReport{}, errBusy
	}
	return ls.runRecovery(idx, failed)
}

// runRecovery drives the three-step §5.2 recovery for ring position idx
// with every step gated on the replicated log: log first, act second, so
// a successor can always resume from the last acknowledged step. A nil
// error with rep.Err set means the recovery itself failed (and was logged
// as such); a non-nil error means the stint lost authority mid-way and
// the recovery is left for the successor. failed is the node being
// replaced, or "" for whatever runs at idx now.
func (ls *leaderStint) runRecovery(idx int, failed netsim.NodeID) (RecoveryReport, error) {
	m := ls.m
	o := m.o
	chain := o.chain
	cfg := o.cfg

	ctx, cancel := context.WithTimeout(context.Background(), cfg.RecoveryTimeout)
	defer cancel()

	if failed == "" {
		failed = chain.RingID(idx)
	}
	rep := RecoveryReport{RingIndex: idx, Failed: failed, DetectedAt: time.Now(), Term: ls.term}
	t0 := time.Now()

	needSpawn, needFetch, needAdopt := true, true, true
	var nr *core.Replica
	var epoch uint64

	if inf, ok := m.view().InFlight[idx]; ok {
		// A predecessor (or an earlier deposed stint of ours) left this
		// recovery mid-flight: resume its epoch at the last logged step.
		rep.Resumed = true
		rep.Failed = inf.Failed
		epoch = inf.Epoch
		if inf.HasPhase {
			switch inf.Phase {
			case PhaseAdopted:
				// The reroute completed; only the close was lost.
				needSpawn, needFetch, needAdopt = false, false, false
			default:
				if r := chain.FindSpawned(inf.Replacement); r != nil && nodeAlive(o.fabric, inf.Replacement) {
					nr = r
					needSpawn = false
					needFetch = inf.Phase == PhaseSpawned
				}
				// Otherwise the replacement died with the old leader;
				// restart the same epoch from scratch.
			}
		}
	} else {
		epoch = ls.nextEpoch(idx)
		if err := ls.replicate(Command{Kind: CmdRecoveryStart, Term: ls.term, Ring: idx, Epoch: epoch, Failed: failed}); err != nil {
			ls.depose()
			return rep, err
		}
	}

	fail := func(err error) (RecoveryReport, error) {
		rep.Err = err
		if nr != nil {
			chain.Abort(nr)
		}
		// Log the failed close; if even that fails we are deposed and the
		// successor retries the epoch.
		if rerr := ls.replicate(Command{Kind: CmdRecoveryDone, Term: ls.term, Ring: idx, Epoch: epoch, Note: err.Error()}); rerr != nil {
			ls.depose()
			return rep, rerr
		}
		o.record(rep)
		return rep, nil
	}

	if needSpawn {
		// Step 1 — initialization: spawn the replacement and inform it of
		// its groups; the round trip models the control latency to the
		// failed replica's region (§7.5).
		r, err := chain.Spawn(idx, ls.term)
		if err != nil {
			rep.Err = err
			ls.depose()
			return rep, err
		}
		nr = r
		_ = core.Ping(ctx, o.fabric, m.node.ID(), nr.SimID(), cfg.RecoveryTimeout)
		rep.Init = time.Since(t0)
		if err := ls.replicate(Command{Kind: CmdRecoveryPhase, Term: ls.term, Ring: idx, Epoch: epoch, Phase: PhaseSpawned, Replacement: nr.SimID()}); err != nil {
			ls.depose()
			return rep, err
		}
		o.phase(PhaseEvent{RingIndex: idx, Phase: PhaseSpawned, Replacement: nr.SimID()})
		if ls.gone() {
			return rep, errDeposed
		}
	}

	if needFetch {
		// Step 2 — state recovery from alive group members.
		t1 := time.Now()
		if err := chain.RecoverState(ctx, nr, ls.term); err != nil {
			if errors.Is(err, core.ErrFenced) {
				ls.depose()
				return rep, err
			}
			return fail(err)
		}
		rep.StateFetch = time.Since(t1)
		if err := ls.replicate(Command{Kind: CmdRecoveryPhase, Term: ls.term, Ring: idx, Epoch: epoch, Phase: PhaseFetched, Replacement: nr.SimID()}); err != nil {
			ls.depose()
			return rep, err
		}
		o.phase(PhaseEvent{RingIndex: idx, Phase: PhaseFetched, Replacement: nr.SimID()})
		if ls.gone() {
			return rep, errDeposed
		}
	}

	if needAdopt {
		// Step 3 — reroute traffic through the replacement, atomically
		// fenced: a deposed stint's adopt is rejected whole.
		t2 := time.Now()
		if err := chain.Adopt(nr, ls.term); err != nil {
			ls.depose()
			return rep, err
		}
		rep.Reroute = time.Since(t2)
		if err := ls.replicate(Command{Kind: CmdRecoveryPhase, Term: ls.term, Ring: idx, Epoch: epoch, Phase: PhaseAdopted, Replacement: nr.SimID()}); err != nil {
			ls.depose()
			return rep, err
		}
		o.phase(PhaseEvent{RingIndex: idx, Phase: PhaseAdopted, Replacement: nr.SimID()})
		if ls.gone() {
			return rep, errDeposed
		}
	}

	if err := ls.replicate(Command{Kind: CmdRecoveryDone, Term: ls.term, Ring: idx, Epoch: epoch}); err != nil {
		ls.depose()
		return rep, err
	}
	rep.Total = time.Since(t0)
	if nr != nil {
		if h := nr.Head(); h != nil {
			rep.Middlebox = fmt.Sprintf("mb%d", h.MB())
		}
	}
	o.record(rep)
	return rep, nil
}

// nextEpoch allocates the next recovery epoch for a ring position from the
// log.
func (ls *leaderStint) nextEpoch(idx int) uint64 {
	return ls.m.view().Epochs[idx] + 1
}

// replicate appends commands to the local log and pushes them to a
// majority. It fails if the stint has been deposed, quorum is lost, or a
// newer term is seen — in all cases the caller must stop acting as leader.
func (ls *leaderStint) replicate(cmds ...Command) error {
	m := ls.m
	if ls.gone() {
		return errDeposed
	}
	m.mu.Lock()
	if m.term != ls.term {
		m.mu.Unlock()
		return errDeposed
	}
	prev := len(m.log)
	entries := make([]Entry, len(cmds))
	for i, c := range cmds {
		entries[i] = Entry{Index: uint64(prev + i), Cmd: c}
	}
	m.log = append(m.log, entries...)
	m.leaseAt = time.Now()
	m.mu.Unlock()

	acks := 1
	for _, p := range m.o.members {
		if p == m {
			continue
		}
		if ls.appendTo(p, prev, entries) {
			acks++
		}
	}
	if acks*2 <= len(m.o.members) {
		return errNoQuorum
	}
	return nil
}

// appendTo pushes entries to one follower, backing down to its log length
// if it is behind.
func (ls *leaderStint) appendTo(p *Member, prev int, entries []Entry) bool {
	m := ls.m
	var resp appendResp
	if err := m.call(p, RPCAppend, appendReq{Term: ls.term, PrevLen: prev, Entries: entries}, &resp); err != nil {
		return false
	}
	if resp.OK {
		return true
	}
	if resp.Term > ls.term {
		m.observeTerm(resp.Term)
		ls.depose()
		return false
	}
	if resp.LogLen >= 0 && resp.LogLen < prev {
		// Follower is missing earlier entries: resend from its length (a
		// negative length is a malformed reply and counts as a failure).
		m.mu.Lock()
		end := prev + len(entries)
		if end > len(m.log) || resp.LogLen >= end {
			m.mu.Unlock()
			return false
		}
		missing := append([]Entry(nil), m.log[resp.LogLen:end]...)
		m.mu.Unlock()
		var resp2 appendResp
		if err := m.call(p, RPCAppend, appendReq{Term: ls.term, PrevLen: resp.LogLen, Entries: missing}, &resp2); err != nil {
			return false
		}
		return resp2.OK
	}
	return false
}

// nodeAlive reports whether a fabric node exists and has not crashed.
func nodeAlive(f *netsim.Fabric, id netsim.NodeID) bool {
	n := f.Node(id)
	return n != nil && !n.Crashed()
}
