package chaos

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/orch"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Invariant names reported in Violations.
const (
	// InvDuplicateEgress: a payload ID left the chain more than once —
	// replayed buffered packets after a recovery (§5.2's at-most-once
	// release claim).
	InvDuplicateEgress = "duplicate-egress"
	// InvUnknownEgress: the sink received a frame that was never injected
	// (corruption or a leaked internal packet).
	InvUnknownEgress = "unknown-egress"
	// InvLostCommittedState: a packet egressed but some middlebox's
	// surviving store no longer accounts for it. Release happens only after
	// f+1-way replication, so every egressed packet's transactions must
	// survive any ≤ f failures.
	InvLostCommittedState = "lost-committed-state"
	// InvDivergentStores: a follower store differs from its head after
	// quiescence.
	InvDivergentStores = "divergent-stores"
	// InvRecoveryFailed: a crashed ring position could not be restored to a
	// live replica.
	InvRecoveryFailed = "recovery-failed"
	// InvRecoverySlow: a successful recovery exceeded the campaign's
	// RecoveryBound.
	InvRecoverySlow = "recovery-slow"
	// InvNoQuiescence: replication never caught up after traffic stopped —
	// a lost or wedged committed log.
	InvNoQuiescence = "no-quiescence"
	// InvFlowResurrected: after the forced-expiry epoch drained every flow
	// entry, some surviving store (head or follower, including recovered
	// replacements) still holds a flow-prefixed key — expiry deletions did
	// not replicate everywhere, or recovery resurrected aged-out state.
	InvFlowResurrected = "flow-resurrected"
	// InvOrphanedRecovery: the ensemble's command log still shows a
	// recovery started but never finished after quiescence — a leader
	// kill orphaned it and no successor resumed it.
	InvOrphanedRecovery = "orphaned-recovery"
	// InvDoubleRecovery: the command log shows the same ring position's
	// recovery epoch completed successfully more than once — a deposed
	// leader's commands got through the fence and raced its successor's.
	InvDoubleRecovery = "double-recovery"
	// InvFalseRecovery: the orchestrator replaced a node the campaign never
	// crashed and whose data links it never cut — a suspicion (or a
	// heartbeat miss) taken for a failure that did not happen.
	InvFalseRecovery = "false-recovery"
)

// Violation is one invariant breach found by the post-campaign audit.
type Violation struct {
	// Invariant is one of the Inv* names.
	Invariant string
	// Detail pinpoints the breach (flow, replica, key, timing).
	Detail string
}

// String renders "invariant: detail".
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// EgressRecord is one packet observed at the sink: the payload ID it was
// injected with and the five-tuple it carried out.
type EgressRecord struct {
	// ID is the payload sequence number ("pkt-%06d").
	ID int
	// Flow is the egress packet's five-tuple.
	Flow wire.FiveTuple
}

// maxDetails caps per-invariant violation listings so a systemic breach
// (every packet duplicated) stays readable.
const maxDetails = 10

// capped appends v to vs unless inv already has maxDetails entries; the
// first overflow appends a summary marker instead.
func capped(vs []Violation, v Violation) []Violation {
	n := 0
	for _, x := range vs {
		if x.Invariant == v.Invariant {
			n++
		}
	}
	if n == maxDetails {
		return append(vs, Violation{v.Invariant, "... more (truncated)"})
	}
	if n > maxDetails {
		return vs
	}
	return append(vs, v)
}

// CheckEgress audits the sink's view: every delivered payload ID must have
// been injected (ID in [0, packets)) and delivered at most once. Exported
// so the negative-control test can prove the checker fires on a fabricated
// duplicate.
func CheckEgress(records []EgressRecord, packets int) []Violation {
	var vs []Violation
	seen := make(map[int]int, len(records))
	for _, r := range records {
		if r.ID < 0 || r.ID >= packets {
			vs = capped(vs, Violation{InvUnknownEgress,
				fmt.Sprintf("payload id %d outside injected range [0,%d)", r.ID, packets)})
			continue
		}
		seen[r.ID]++
	}
	ids := make([]int, 0, len(seen))
	for id, n := range seen {
		if n > 1 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		vs = capped(vs, Violation{InvDuplicateEgress,
			fmt.Sprintf("payload id %d egressed %d times", id, seen[id])})
	}
	return vs
}

// checkResurrected audits the post-expiry state: once the forced-expiry
// epoch drained every due flow entry and replication re-quiesced, no
// surviving store — head or follower, original or recovered replacement —
// may still hold a key under any FlowCounter's prefix.
func checkResurrected(ch *core.Chain, fcs []*mbox.FlowCounter) []Violation {
	var vs []Violation
	ring := ch.Ring()
	for j, fc := range fcs {
		audit := func(name string, b state.Backend) {
			for _, u := range b.Snapshot() {
				if strings.HasPrefix(u.Key, fc.Prefix()) {
					vs = capped(vs, Violation{InvFlowResurrected,
						fmt.Sprintf("%s still holds expired flow key %q", name, u.Key)})
				}
			}
		}
		audit(fmt.Sprintf("mb %d head", j), ch.Replica(j).Head().Store())
		for _, i := range ring.Members(j)[1:] {
			audit(fmt.Sprintf("mb %d follower@%d", j, i), ch.Replica(i).Follower(uint16(j)).Store())
		}
	}
	return vs
}

// checkCommitted audits the committed-then-lost invariant: a packet is
// released at the tail only after its transactions replicated f+1 ways, so
// for every egressed packet each FlowCounter's surviving head store must
// hold that flow's counter at ≥ the egress count.
func checkCommitted(ch *core.Chain, fcs []*mbox.FlowCounter, records []EgressRecord) []Violation {
	perFlow := make(map[wire.FiveTuple]uint64)
	for _, r := range records {
		perFlow[r.Flow]++
	}
	flows := make([]wire.FiveTuple, 0, len(perFlow))
	for t := range perFlow {
		flows = append(flows, t)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].String() < flows[j].String() })
	var vs []Violation
	for j, fc := range fcs {
		store := ch.Replica(j).Head().Store()
		for _, t := range flows {
			want := perFlow[t]
			v, ok := store.Get(fc.Key(t))
			if got := fc.Count(v); !ok || got < want {
				vs = capped(vs, Violation{InvLostCommittedState,
					fmt.Sprintf("mb %d flow %s: %d packets egressed but surviving counter = %d", j, t, want, got)})
			}
		}
	}
	return vs
}

// CheckControlLog audits the ensemble's committed command log after
// quiescence: every started recovery must have finished (no leader kill
// may orphan one), and no ring position's recovery epoch may have
// completed successfully twice (rival leaders racing through the fence).
func CheckControlLog(v orch.LogView) []Violation {
	var vs []Violation
	rings := make([]int, 0, len(v.InFlight))
	for ring := range v.InFlight {
		rings = append(rings, ring)
	}
	sort.Ints(rings)
	for _, ring := range rings {
		inf := v.InFlight[ring]
		phase := "before any phase"
		if inf.HasPhase {
			phase = fmt.Sprintf("at phase %v (replacement %s)", inf.Phase, inf.Replacement)
		}
		vs = capped(vs, Violation{InvOrphanedRecovery,
			fmt.Sprintf("ring %d epoch %d started but never finished, %s", ring, inf.Epoch, phase)})
	}
	rings = rings[:0]
	for ring := range v.Succeeded {
		rings = append(rings, ring)
	}
	sort.Ints(rings)
	for _, ring := range rings {
		epochs := make([]uint64, 0, len(v.Succeeded[ring]))
		for ep := range v.Succeeded[ring] {
			epochs = append(epochs, ep)
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
		for _, ep := range epochs {
			if n := v.Succeeded[ring][ep]; n > 1 {
				vs = capped(vs, Violation{InvDoubleRecovery,
					fmt.Sprintf("ring %d epoch %d completed successfully %d times", ring, ep, n)})
			}
		}
	}
	return vs
}

// CheckRecoveries audits every recovery report against the faults the
// campaign injected: a report's failed node must be one it crashed
// (crashed) or one whose data link it cut (cut). Anything else replaced a
// healthy replica.
func CheckRecoveries(reps []orch.RecoveryReport, crashed, cut map[netsim.NodeID]bool) []Violation {
	var vs []Violation
	for _, rep := range reps {
		if !crashed[rep.Failed] && !cut[rep.Failed] {
			vs = capped(vs, Violation{InvFalseRecovery,
				fmt.Sprintf("ring %d replaced %s, which was never crashed nor cut off (term %d)",
					rep.RingIndex, rep.Failed, rep.Term)})
		}
	}
	return vs
}
