package orch

import (
	"fmt"

	"github.com/ftsfc/ftc/internal/netsim"
)

// CmdKind identifies one replicated-log command. The command log is the
// ensemble's ground truth: every externally visible step of a recovery is
// appended (and acknowledged by a majority) before the step's effect is
// applied to the chain, so a successor leader can replay the log and
// resume any recovery its predecessor left mid-flight.
type CmdKind int

// Log command kinds, in the order a recovery produces them.
const (
	// CmdElect records a leadership change: Member won Term. Replicating
	// it is the new leader's first act and doubles as the quorum check
	// that makes the takeover real.
	CmdElect CmdKind = iota
	// CmdRecoveryStart opens recovery Epoch for ring position Ring.
	CmdRecoveryStart
	// CmdRecoveryPhase records that Phase completed for the open recovery
	// of Ring, with Replacement naming the spawned node so a successor
	// can pick up the same half-built replica instead of leaking it.
	CmdRecoveryPhase
	// CmdRecoveryDone closes the open recovery of Ring. An empty Note is
	// success; otherwise Note carries the error and the epoch may be
	// retried under a fresh CmdRecoveryStart.
	CmdRecoveryDone
)

// String names the kind for traces and audit output.
func (k CmdKind) String() string {
	switch k {
	case CmdElect:
		return "elect"
	case CmdRecoveryStart:
		return "recovery-start"
	case CmdRecoveryPhase:
		return "recovery-phase"
	case CmdRecoveryDone:
		return "recovery-done"
	default:
		return fmt.Sprintf("CmdKind(%d)", int(k))
	}
}

// Command is one replicated control-plane decision. It is JSON-encoded on
// the wire: the command log is strictly off the data path, so clarity in
// chaos-audit dumps beats compactness here.
type Command struct {
	Kind CmdKind `json:"kind"`
	// Term is the leader term that issued the command.
	Term uint64 `json:"term"`
	// Member is the rank of the elected member (CmdElect only).
	Member int `json:"member,omitempty"`
	// Ring is the ring position under recovery.
	Ring int `json:"ring,omitempty"`
	// Epoch numbers recoveries per ring position; it survives leader
	// changes, so a resumed recovery keeps its predecessor's epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Phase is the completed sub-step (CmdRecoveryPhase only).
	Phase Phase `json:"phase,omitempty"`
	// Replacement is the spawned replica's fabric node.
	Replacement netsim.NodeID `json:"replacement,omitempty"`
	// Failed is the node the recovery replaces (CmdRecoveryStart only).
	Failed netsim.NodeID `json:"failed,omitempty"`
	// Note carries an error string on a failed CmdRecoveryDone.
	Note string `json:"note,omitempty"`
}

// Entry is one slot of the replicated log.
type Entry struct {
	Index uint64  `json:"index"`
	Cmd   Command `json:"cmd"`
}

// InFlight describes one recovery that has a CmdRecoveryStart but no
// CmdRecoveryDone yet — the state a successor leader must resume.
type InFlight struct {
	Ring  int
	Epoch uint64
	// Failed is the node the recovery replaces.
	Failed netsim.NodeID
	// HasPhase reports whether any CmdRecoveryPhase was logged; if not,
	// the recovery died before the replacement was spawned and the
	// successor restarts the epoch from scratch.
	HasPhase bool
	// Phase is the latest logged sub-step.
	Phase Phase
	// Replacement is the spawned node named by the latest phase entry.
	Replacement netsim.NodeID
}

// LogView is the state-machine view obtained by replaying a command log.
// The chaos harness audits it post-quiescence; a successor leader replays
// it at takeover to learn what to resume.
type LogView struct {
	// Term is the highest term seen in the log.
	Term uint64
	// Leader is the member rank of the last CmdElect.
	Leader int
	// Epochs is the last epoch opened per ring position.
	Epochs map[int]uint64
	// InFlight maps ring position to its open (started, not done)
	// recovery, if any.
	InFlight map[int]InFlight
	// Succeeded counts successful CmdRecoveryDone entries per ring
	// position and epoch: Succeeded[ring][epoch] > 1 means two leaders
	// both completed the same recovery — the double-recovery violation.
	Succeeded map[int]map[uint64]int
	// Elections counts CmdElect entries.
	Elections int
}

// Replay folds a command log into its state-machine view.
func Replay(entries []Entry) LogView {
	v := LogView{
		Leader:    -1,
		Epochs:    make(map[int]uint64),
		InFlight:  make(map[int]InFlight),
		Succeeded: make(map[int]map[uint64]int),
	}
	for _, e := range entries {
		c := e.Cmd
		if c.Term > v.Term {
			v.Term = c.Term
		}
		switch c.Kind {
		case CmdElect:
			v.Leader = c.Member
			v.Elections++
		case CmdRecoveryStart:
			if c.Epoch > v.Epochs[c.Ring] {
				v.Epochs[c.Ring] = c.Epoch
			}
			v.InFlight[c.Ring] = InFlight{Ring: c.Ring, Epoch: c.Epoch, Failed: c.Failed}
		case CmdRecoveryPhase:
			inf, ok := v.InFlight[c.Ring]
			if !ok || inf.Epoch != c.Epoch {
				// Phase for a closed or unknown recovery: a fenced
				// leader's stale append that slipped in before the
				// fence; replay ignores it.
				continue
			}
			inf.HasPhase = true
			inf.Phase = c.Phase
			inf.Replacement = c.Replacement
			v.InFlight[c.Ring] = inf
		case CmdRecoveryDone:
			inf, ok := v.InFlight[c.Ring]
			if ok && inf.Epoch == c.Epoch {
				delete(v.InFlight, c.Ring)
			}
			if c.Note == "" {
				m := v.Succeeded[c.Ring]
				if m == nil {
					m = make(map[uint64]int)
					v.Succeeded[c.Ring] = m
				}
				m[c.Epoch]++
			}
		}
	}
	return v
}
