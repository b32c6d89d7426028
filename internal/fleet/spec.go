package fleet

import (
	"fmt"
	"time"
)

// ChainSpec is one service function chain's arrival contract — the
// `ServiceFunctionChain{arrival_time, ttl, bandwidth_demand,
// max_response_latency, number_of_users}` shape of the slice-broker
// literature (PAPERS.md: Wion et al.), normalized to internal units. The
// scenario loader derives it from the JSON surface (ChainConfig) or from
// the Poisson arrival process (ArrivalsConfig); the broker admits, places,
// runs, and reclaims chains by it.
type ChainSpec struct {
	// Name identifies the chain in traces, reports, and fabric node names.
	// It must be unique within a scenario.
	Name string
	// Arrival is the chain's arrival offset from scenario start (before
	// TimeScale is applied).
	Arrival time.Duration
	// TTL is how long the chain lives once active; on expiry the broker
	// tears it down and reclaims its state and capacity.
	TTL time.Duration
	// BandwidthMbps is the chain's bandwidth demand in Mbps. Every server
	// hosting one of its ring replicas reserves this much NIC capacity
	// (each hop carries the full chain load).
	BandwidthMbps float64
	// MaxResponseLatency is the chain's response-latency SLA: a chain whose
	// measured p99 ingress→egress latency exceeds it is counted as an SLA
	// violation.
	MaxResponseLatency time.Duration
	// Users is the number of subscribers, mapped to distinct generator
	// flows (five-tuples).
	Users int
	// PerUserMbps is the per-user data rate in Mbps; when BandwidthMbps is
	// zero the demand is Users × PerUserMbps, mirroring the SFC-broker
	// convention.
	PerUserMbps float64
	// Middleboxes names the chain's middlebox types in order (see
	// BuildMiddleboxes for the catalog).
	Middleboxes []string
	// F is the number of simultaneous replica failures the chain tolerates
	// (replication factor F+1).
	F int
	// DowntimeBudget is the chain's cumulative recovery-downtime budget: if
	// the summed recovery times of its crashes exceed it, the chain counts
	// a downtime violation (the per-chain downtime attribute of the
	// nsp4j-style scenario topologies).
	DowntimeBudget time.Duration
}

// Demand is the effective bandwidth demand in Mbps: BandwidthMbps, or
// Users × PerUserMbps when no explicit demand is given.
func (s ChainSpec) Demand() float64 {
	if s.BandwidthMbps > 0 {
		return s.BandwidthMbps
	}
	return float64(s.Users) * s.PerUserMbps
}

// RingSize is the number of servers the chain occupies: one per ring
// position, max(len(Middleboxes), F+1) — the chain plus extension replicas
// (§5.1 of the paper).
func (s ChainSpec) RingSize() int {
	if s.F+1 > len(s.Middleboxes) {
		return s.F + 1
	}
	return len(s.Middleboxes)
}

// Validate rejects specs the broker cannot run.
func (s ChainSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("fleet: chain with empty name")
	}
	if len(s.Middleboxes) == 0 {
		return fmt.Errorf("fleet: chain %s: no middleboxes", s.Name)
	}
	if s.TTL <= 0 {
		return fmt.Errorf("fleet: chain %s: TTL must be positive", s.Name)
	}
	if s.Demand() <= 0 {
		return fmt.Errorf("fleet: chain %s: bandwidth demand must be positive", s.Name)
	}
	if s.F < 0 {
		return fmt.Errorf("fleet: chain %s: negative f", s.Name)
	}
	if s.Users <= 0 {
		return fmt.Errorf("fleet: chain %s: users must be positive", s.Name)
	}
	return nil
}

// State is a chain's position in the broker lifecycle. The machine is
// linear with one terminal branch:
//
//	Arriving → Admitted → Placed → Active → Expiring → Reclaimed
//	    └→ Rejected
//
// Arriving chains have been read off the scenario but not yet passed
// admission control; Admitted chains hold capacity reservations; Placed
// chains additionally have fabric nodes and replicas built; Active chains
// carry traffic with steering installed; Expiring chains are draining
// (traffic stopped, flow state expiring through the TTL wheels); Reclaimed
// and Rejected are terminal. See DESIGN.md §12.
type State int

// Broker lifecycle states, in transition order.
const (
	// StateArriving is the entry state: spec known, nothing reserved.
	StateArriving State = iota
	// StateAdmitted means admission control succeeded and the pool holds
	// CPU/bandwidth reservations for every ring position.
	StateAdmitted
	// StatePlaced means the chain's replicas, generator, sink, and
	// orchestrator exist on the fabric, mapped to reserved servers.
	StatePlaced
	// StateActive means traffic is flowing and steering is installed.
	StateActive
	// StateExpiring means the TTL elapsed: traffic is stopped and per-flow
	// state is draining through the replicated TTL-expiry path.
	StateExpiring
	// StateReclaimed is terminal: nodes removed, capacity released.
	StateReclaimed
	// StateRejected is terminal: admission control found no feasible
	// placement; nothing was reserved.
	StateRejected
)

// String names the state for traces and reports.
func (s State) String() string {
	switch s {
	case StateArriving:
		return "arriving"
	case StateAdmitted:
		return "admitted"
	case StatePlaced:
		return "placed"
	case StateActive:
		return "active"
	case StateExpiring:
		return "expiring"
	case StateReclaimed:
		return "reclaimed"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}
