// Package orch implements FTC's centralized orchestrator (§3.2, §5.2): it
// deploys fault-tolerant chains, detects fail-stop failures — confirming
// the replicas' data-plane suspicions with a probe along the ring, with
// heartbeats as the backstop for an idle chain — and drives the three-step
// recovery — spawn a replacement, recover state from alive group members,
// and reroute traffic. In the paper the orchestrator is an ONOS SDN
// controller; here it is one logical controller replicated over
// Config.Members fabric nodes (DESIGN.md §14), and like the paper's it
// stays entirely off the data path.
package orch

import (
	"fmt"
	"sync"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
)

// Phase identifies a recovery sub-step for the OnPhase hook. The chaos
// harness uses these to inject crashes in the middle of a recovery — the
// multi-failure interleavings of the FTC technical report's §5.2
// experiments ("if the contacted replica fails during recovery, the
// orchestrator re-initializes the new replica").
type Phase int

// Recovery sub-steps, in execution order.
const (
	// PhaseSpawned fires after the replacement's fabric node exists but
	// before any state has been fetched.
	PhaseSpawned Phase = iota
	// PhaseFetched fires after state recovery succeeded, before rerouting.
	PhaseFetched
	// PhaseAdopted fires after the chain has been rerouted through the
	// replacement (the recovery is complete but the report not yet
	// recorded).
	PhaseAdopted
)

// String names the phase for traces.
func (p Phase) String() string {
	switch p {
	case PhaseSpawned:
		return "spawned"
	case PhaseFetched:
		return "fetched"
	case PhaseAdopted:
		return "adopted"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// PhaseEvent describes one recovery sub-step transition passed to OnPhase.
type PhaseEvent struct {
	// RingIndex is the ring position being recovered.
	RingIndex int
	// Phase is the sub-step just completed.
	Phase Phase
	// Replacement is the fabric node of the replica being brought up.
	Replacement netsim.NodeID
}

// Config tunes failure detection and the orchestrator's replication.
type Config struct {
	// HeartbeatEvery is the ping period per replica.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is the per-ping timeout. Keep it above the RTT to
	// the farthest replica, or every ping to it counts as a miss.
	HeartbeatTimeout time.Duration
	// Misses is how many consecutive missed heartbeats declare a failure.
	Misses int
	// RecoveryTimeout bounds one full recovery.
	RecoveryTimeout time.Duration

	// Members is the number of orchestrator nodes (leader + followers).
	// 1 runs an unreplicated leader (no failover); 3 survives one
	// orchestrator crash; 5 survives two, including killing the new leader
	// during its takeover.
	Members int
	// LeaseEvery is the leader's lease-renewal period to followers.
	LeaseEvery time.Duration
	// ElectionAfter is how long a follower waits without leader contact
	// before standing for election; candidacy is additionally staggered
	// by rank so members stand one at a time.
	ElectionAfter time.Duration
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 20 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = c.HeartbeatEvery
	}
	if c.Misses <= 0 {
		c.Misses = 3
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 30 * time.Second
	}
	if c.Members <= 0 {
		c.Members = 1
	}
	if c.LeaseEvery <= 0 {
		c.LeaseEvery = 10 * time.Millisecond
	}
	if c.ElectionAfter <= 0 {
		c.ElectionAfter = 12 * c.LeaseEvery
	}
	return c
}

// RecoveryReport records the timing of one replica recovery, matching the
// breakdown of Figure 13: initialization (spawning the replacement and
// informing it about the alive replicas), state recovery (fetching state
// from remote group members), and rerouting.
type RecoveryReport struct {
	RingIndex int
	// Failed is the fabric node the recovery replaced.
	Failed     netsim.NodeID
	Middlebox  string
	DetectedAt time.Time
	Init       time.Duration
	StateFetch time.Duration
	Reroute    time.Duration
	Total      time.Duration
	Err        error
	// Term is the leader term that completed the recovery.
	Term uint64
	// Resumed marks a recovery continued across a leader failover: its
	// phase timings span the takeover gap, so latency-bound checks
	// should treat it separately.
	Resumed bool
}

// Orchestrator monitors one FTC chain and repairs it on failure. It runs
// on Config.Members fabric nodes that elect a leader over a shared command
// log. The leader owns heartbeats, suspicion intake, failure detection,
// and recovery execution; every recovery step is replicated before it acts, so when the
// leader dies a follower takes over and resumes — not restarts — whatever
// was mid-flight. Fencing terms (Chain.FenceController plus the chain's
// term-checked recovery steps) make a deposed leader's stale commands
// harmless.
type Orchestrator struct {
	cfg    Config
	fabric *netsim.Fabric
	chain  *core.Chain

	members []*Member

	mu      sync.Mutex
	reports []RecoveryReport

	stopOnce sync.Once

	detected  metrics.Counter
	refuted   metrics.Counter
	takeovers metrics.Counter
	recHist   *metrics.Histogram
	fetchHist *metrics.Histogram

	// OnRecovery, if set, is called after each recovery attempt.
	OnRecovery func(RecoveryReport)
	// OnPhase, if set, is called synchronously at each recovery sub-step
	// (see Phase). Fault-injection harnesses hook it to crash replicas —
	// or the leader itself — in the middle of a recovery; it must not
	// block for long, since it runs on the recovery path and extends the
	// measured phase timings.
	OnPhase func(PhaseEvent)
	// OnLeader, if set, is called synchronously when a member completes a
	// takeover (after the election record replicated and the chain was
	// fenced, before orphaned recoveries resume). The chaos harness hooks
	// it to kill the new leader during takeover.
	OnLeader func(term uint64, member int)
}

// New creates cfg.Members orchestrator nodes named base-m0, base-m1, ... on
// the fabric. Member 0 leads at term 1 once Start is called; later terms
// are won by election.
func New(cfg Config, fabric *netsim.Fabric, base netsim.NodeID, chain *core.Chain) *Orchestrator {
	cfg = cfg.WithDefaults()
	o := &Orchestrator{
		cfg:       cfg,
		fabric:    fabric,
		chain:     chain,
		recHist:   metrics.NewHistogram(),
		fetchHist: metrics.NewHistogram(),
	}
	for i := 0; i < cfg.Members; i++ {
		m := &Member{
			o:       o,
			rank:    i,
			node:    fabric.AddNode(netsim.NodeID(fmt.Sprintf("%s-m%d", base, i)), netsim.NodeConfig{}),
			stopped: make(chan struct{}),
		}
		m.register()
		o.members = append(o.members, m)
	}
	return o
}

// Members returns the orchestrator's members (stable ranks).
func (o *Orchestrator) Members() []*Member { return append([]*Member(nil), o.members...) }

// Start launches the orchestrator: member 0 takes term 1 deterministically
// (no cold-start election) and starts the failure detector, the rest
// follow.
func (o *Orchestrator) Start() {
	now := time.Now()
	for _, m := range o.members {
		m.mu.Lock()
		m.leaseAt = now
		m.mu.Unlock()
	}
	for _, m := range o.members {
		m.wg.Add(1)
		go m.run()
	}
	o.members[0].becomeLeader(1)
}

// Stop terminates every member and joins all their goroutines, including
// any leader stint's monitors — the regression target for the
// crashed-orchestrator goroutine-leak audit.
func (o *Orchestrator) Stop() {
	o.stopOnce.Do(func() {
		for _, m := range o.members {
			if ls := m.currentStint(); ls != nil {
				ls.depose()
			}
			m.stopOnce.Do(func() { close(m.stopped) })
		}
		for _, m := range o.members {
			m.wg.Wait()
		}
	})
}

// Leader returns the rank and term of the current leader, or (-1, 0) if
// no member is leading right now (e.g. mid-election).
func (o *Orchestrator) Leader() (int, uint64) {
	for _, m := range o.members {
		if ls := m.currentStint(); ls != nil {
			return m.rank, ls.term
		}
	}
	return -1, 0
}

// leaderMember returns the leading member, if any.
func (o *Orchestrator) leaderMember() *Member {
	for _, m := range o.members {
		if m.currentStint() != nil {
			return m
		}
	}
	return nil
}

// CrashLeader fail-stops the current leader, returning its rank or -1 if
// no leader was up. The chaos harness's mid-recovery rider calls this from
// inside OnPhase, on the leader's own recovery goroutine — Crash only
// signals, so that is safe.
func (o *Orchestrator) CrashLeader() int {
	m := o.leaderMember()
	if m == nil {
		return -1
	}
	m.Crash()
	return m.rank
}

// CrashMember fail-stops member rank.
func (o *Orchestrator) CrashMember(rank int) {
	if rank >= 0 && rank < len(o.members) {
		o.members[rank].Crash()
	}
}

// NodeID returns a usable control-plane source node: the current leader's
// if one is up, else the first alive member's, else member 0's. Callers
// that shape the orchestrator's links or send their own liveness probes
// from it (fleet, Fig 13) address it through here.
func (o *Orchestrator) NodeID() netsim.NodeID {
	if m := o.leaderMember(); m != nil {
		return m.node.ID()
	}
	for _, m := range o.members {
		if !m.crashed.Load() {
			return m.node.ID()
		}
	}
	return o.members[0].node.ID()
}

// Detected reports how many failures the (current and past) leaders
// declared, from heartbeats or from a confirmed suspicion (manual Recover
// calls are not counted).
func (o *Orchestrator) Detected() uint64 { return o.detected.Value() }

// Refuted counts data-plane suspicions whose path answered the leader's
// probes end to end: nothing was recovered for them.
func (o *Orchestrator) Refuted() uint64 { return o.refuted.Value() }

// Takeovers counts completed leadership changes, including the initial
// term-1 installation.
func (o *Orchestrator) Takeovers() uint64 { return o.takeovers.Value() }

// RecoveryHist is the histogram of total recovery times across successful
// recoveries (Figure 13's Total column as a distribution).
func (o *Orchestrator) RecoveryHist() *metrics.Histogram { return o.recHist }

// FetchHist is the histogram of state-fetch times across successful
// recoveries.
func (o *Orchestrator) FetchHist() *metrics.Histogram { return o.fetchHist }

// Reports returns the recovery reports so far.
func (o *Orchestrator) Reports() []RecoveryReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]RecoveryReport(nil), o.reports...)
}

// Log returns the authoritative committed command log: the current
// leader's if one is up, else the longest log among alive members, else
// the longest overall. Post-quiescence audits replay it.
func (o *Orchestrator) Log() []Entry {
	if m := o.leaderMember(); m != nil {
		return m.Log()
	}
	var best []Entry
	for _, m := range o.members {
		if m.crashed.Load() {
			continue
		}
		if l := m.Log(); len(l) > len(best) {
			best = l
		}
	}
	if best == nil {
		for _, m := range o.members {
			if l := m.Log(); len(l) > len(best) {
				best = l
			}
		}
	}
	return best
}

// View replays the authoritative log.
func (o *Orchestrator) View() LogView { return Replay(o.Log()) }

// Recover runs (or joins) a recovery for ring position idx and returns its
// report. The orchestrator must have been started: recoveries run on the
// leader, and before Start there is none. If the failure detector already
// started a recovery for idx (they race when a failure is injected
// manually), Recover waits for its report. The driving leader may die
// mid-way; Recover then waits for the successor to resume and finish the
// job, up to one RecoveryTimeout per member.
func (o *Orchestrator) Recover(idx int) RecoveryReport {
	deadline := time.Now().Add(o.cfg.RecoveryTimeout * time.Duration(len(o.members)))
	o.mu.Lock()
	from := len(o.reports)
	o.mu.Unlock()
	for {
		// Reports first: a successor resuming the recovery may already have
		// finished it, and a direct call below would then start a fresh,
		// redundant epoch against an already-healthy ring.
		if rep, ok := o.reportAfter(idx, from); ok {
			return rep
		}
		if m := o.leaderMember(); m != nil {
			if ls := m.currentStint(); ls != nil {
				rep, err := ls.recoverPosition(idx, "")
				if err == nil {
					return rep
				}
				// errBusy or a mid-flight depose: fall through and wait
				// for whoever finishes it to record a report.
			}
		}
		if rep, ok := o.reportAfter(idx, from); ok {
			return rep
		}
		if time.Now().After(deadline) {
			return RecoveryReport{RingIndex: idx, Err: fmt.Errorf("orch: timed out recovering position %d", idx)}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reportAfter scans for a report for idx recorded at or after position
// from.
func (o *Orchestrator) reportAfter(idx, from int) (RecoveryReport, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := from; i < len(o.reports); i++ {
		if o.reports[i].RingIndex == idx {
			return o.reports[i], true
		}
	}
	return RecoveryReport{}, false
}

func (o *Orchestrator) noteLeader(term uint64, member int) {
	o.takeovers.Inc()
	if o.OnLeader != nil {
		o.OnLeader(term, member)
	}
}

func (o *Orchestrator) phase(ev PhaseEvent) {
	if o.OnPhase != nil {
		o.OnPhase(ev)
	}
}

func (o *Orchestrator) record(rep RecoveryReport) {
	if rep.Err == nil {
		o.recHist.Record(rep.Total)
		o.fetchHist.Record(rep.StateFetch)
	}
	o.mu.Lock()
	o.reports = append(o.reports, rep)
	o.mu.Unlock()
	if o.OnRecovery != nil {
		o.OnRecovery(rep)
	}
}
