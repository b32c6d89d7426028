package fleet

import (
	"fmt"
	"time"
)

// Report is the outcome of one fleet run: the acceptance/SLA headline
// numbers, one row per chain in arrival order, and one row per pool
// server. The exp package renders it into tables; Violations flattens the
// protocol failures.
type Report struct {
	// Scenario echoes the scenario name.
	Scenario string
	// Total, Admitted, and Rejected count chains offered to the broker.
	Total, Admitted, Rejected int
	// AcceptanceRatio is Admitted / Total (0..1) — the fleet headline
	// metric; rejected chains count against it.
	AcceptanceRatio float64
	// SLAViolations counts chains whose measured p99 response latency
	// exceeded their MaxResponseLatency.
	SLAViolations int
	// DowntimeViolations counts chains whose cumulative recovery downtime
	// exceeded their budget.
	DowntimeViolations int
	// ConvergenceFailures counts chains whose teardown audit found
	// divergent or non-quiescent replica stores.
	ConvergenceFailures int
	// RecoveryFailures counts ring positions that could not be restored.
	RecoveryFailures int
	// Recoveries counts ring positions successfully restored after server
	// crashes.
	Recoveries int
	// TimedOut reports that some chain never reached a terminal state
	// before the run's slack deadline.
	TimedOut bool
	// SteerForwarded and SteerMisses are the classifier's counters.
	SteerForwarded, SteerMisses uint64
	// ReplicaOnlyPeak is the worst number of dedicated-replica servers ever
	// observed; 0 means cross-chain replica sharing held throughout.
	ReplicaOnlyPeak int
	// Chains holds one row per chain, in arrival order.
	Chains []ChainReport
	// Servers holds one row per pool server, in name order.
	Servers []ServerReport
	// Elapsed is the run wall-clock time.
	Elapsed time.Duration
}

// ChainReport is one chain's lifecycle outcome.
type ChainReport struct {
	// Name is the chain's scenario name.
	Name string
	// State is the chain's final lifecycle state.
	State State
	// RejectReason explains a Rejected state.
	RejectReason string
	// Servers maps ring positions to the servers that hosted them last.
	Servers Placement
	// DemandMbps is the admitted bandwidth demand in Mbps.
	DemandMbps float64
	// RingSize is the chain's replica count, max(len(middleboxes), f+1).
	RingSize int
	// Sent and Delivered count workload packets offered and received.
	Sent, Delivered uint64
	// Deletions is how many head-store entries left during teardown's
	// forced-expiry epoch, through the replicated TTL-expiry path.
	Deletions int
	// Recoveries and RecoveryFailures count this chain's restored and
	// unrestorable ring positions.
	Recoveries, RecoveryFailures int
	// Downtime is the summed recovery time across the chain's crashes.
	Downtime time.Duration
	// DowntimeBudget echoes the spec's budget (0 = unbudgeted).
	DowntimeBudget time.Duration
	// LatencyP99 is the measured p99 ingress→egress latency.
	LatencyP99 time.Duration
	// MaxLatency echoes the spec's response-latency SLA.
	MaxLatency time.Duration
	// SLAViolated reports LatencyP99 > MaxLatency (with traffic delivered).
	SLAViolated bool
	// ConvergeErr and QuiesceErr carry the teardown audit failures, empty
	// when the audit passed.
	ConvergeErr, QuiesceErr string
}

// ServerReport is one pool server's utilization outcome.
type ServerReport struct {
	// Name is the server's pool name.
	Name string
	// PeakCPU and PeakBW are peak reservation ratios (0..1; overcommitted
	// servers exceed 1).
	PeakCPU, PeakBW float64
	// CPU and BW are the reservation ratios at run end (0..1).
	CPU, BW float64
	// Chains is the count of distinct chains hosted at run end.
	Chains int
	// Overbooks counts reservations accepted beyond nominal capacity
	// (post-crash reassignment prefers overcommit to under-replication).
	Overbooks int
	// Down reports the server was crashed during the run.
	Down bool
}

// report assembles the fleet report. Chains still mid-teardown (only
// possible on a timed-out run) are reported from their race-free fields.
func (f *Fleet) report(timedOut bool) *Report {
	rep := &Report{
		Scenario:       f.scn.Name,
		TimedOut:       timedOut,
		SteerForwarded: f.steer.Forwarded(),
		SteerMisses:    f.steer.Misses(),
		Elapsed:        time.Since(f.start),
	}
	f.mu.Lock()
	ord := append([]string(nil), f.ord...)
	recs := make([]*chainRec, 0, len(ord))
	for _, name := range ord {
		recs = append(recs, f.recs[name])
	}
	rep.ReplicaOnlyPeak = f.pool.ReplicaOnlyPeak()
	for _, s := range f.pool.Servers() {
		cpu, bw, pCPU, pBW := s.Utilization()
		rep.Servers = append(rep.Servers, ServerReport{
			Name: s.Name, PeakCPU: pCPU, PeakBW: pBW, CPU: cpu, BW: bw,
			Chains: s.Chains(), Overbooks: s.overbooks, Down: s.Down(),
		})
	}
	f.mu.Unlock()

	for _, rec := range recs {
		cr := ChainReport{
			Name:           rec.spec.Name,
			State:          rec.getState(),
			DemandMbps:     rec.spec.Demand(),
			RingSize:       rec.spec.RingSize(),
			DowntimeBudget: rec.spec.DowntimeBudget,
			MaxLatency:     rec.spec.MaxResponseLatency,
		}
		// Result fields are written under rec.mu; a chain wedged mid-teardown
		// on a timed-out run keeps its lock, so try rather than block.
		if rec.mu.TryLock() {
			if rec.reject != nil {
				cr.RejectReason = rec.reject.Error()
			}
			cr.Servers = append(Placement(nil), rec.servers...)
			cr.Sent, cr.Delivered = rec.sent, rec.delivered
			cr.Deletions = rec.deletions
			cr.Recoveries, cr.RecoveryFailures = rec.recoveries, rec.recoveryFailures
			cr.Downtime = rec.downtime
			cr.LatencyP99 = rec.latencyP99
			cr.SLAViolated = rec.latencyCount > 0 && rec.latencyP99 > rec.spec.MaxResponseLatency
			if rec.convErr != nil {
				cr.ConvergeErr = rec.convErr.Error()
			}
			if rec.quiesceErr != nil {
				cr.QuiesceErr = rec.quiesceErr.Error()
			}
			rec.mu.Unlock()
		}

		rep.Total++
		if cr.State == StateRejected {
			rep.Rejected++
		} else {
			rep.Admitted++
		}
		if cr.SLAViolated {
			rep.SLAViolations++
		}
		if cr.DowntimeBudget > 0 && cr.Downtime > cr.DowntimeBudget {
			rep.DowntimeViolations++
		}
		if cr.ConvergeErr != "" || cr.QuiesceErr != "" {
			rep.ConvergenceFailures++
		}
		rep.Recoveries += cr.Recoveries
		rep.RecoveryFailures += cr.RecoveryFailures
		rep.Chains = append(rep.Chains, cr)
	}
	if rep.Total > 0 {
		rep.AcceptanceRatio = float64(rep.Admitted) / float64(rep.Total)
	}
	return rep
}

// Violations flattens the protocol failures: wedged runs, convergence or
// quiescence failures, unrestored ring positions, downtime overruns, and
// any admitted chain that did not end Reclaimed. Rejections are not
// violations — an over-committed scenario is allowed to reject; the
// acceptance ratio records it. Nor are SLA misses: a p99 latency depends on
// the host's load, so they are counted apart (SLAViolations).
func (r *Report) Violations() []string {
	var out []string
	if r.TimedOut {
		out = append(out, "run timed out: chains left non-terminal past the slack deadline")
	}
	for _, c := range r.Chains {
		if c.State != StateReclaimed && c.State != StateRejected {
			out = append(out, fmt.Sprintf("chain %s ended %v, not reclaimed", c.Name, c.State))
		}
		if c.ConvergeErr != "" {
			out = append(out, fmt.Sprintf("chain %s: convergence: %s", c.Name, c.ConvergeErr))
		}
		if c.QuiesceErr != "" {
			out = append(out, fmt.Sprintf("chain %s: quiescence: %s", c.Name, c.QuiesceErr))
		}
		if c.RecoveryFailures > 0 {
			out = append(out, fmt.Sprintf("chain %s: %d ring positions unrestored", c.Name, c.RecoveryFailures))
		}
		if c.DowntimeBudget > 0 && c.Downtime > c.DowntimeBudget {
			out = append(out, fmt.Sprintf("chain %s: downtime %v exceeds budget %v", c.Name, c.Downtime, c.DowntimeBudget))
		}
	}
	return out
}

// OneLine renders the report headline as a single log line.
func (r *Report) OneLine() string {
	return fmt.Sprintf(
		"scenario=%s chains=%d admitted=%d rejected=%d accept=%.2f recoveries=%d sla_viol=%d conv_fail=%d replica_only_peak=%d steer=%d/%d elapsed=%v",
		r.Scenario, r.Total, r.Admitted, r.Rejected, r.AcceptanceRatio,
		r.Recoveries, r.SLAViolations, r.ConvergenceFailures, r.ReplicaOnlyPeak,
		r.SteerForwarded, r.SteerMisses, r.Elapsed.Round(time.Millisecond))
}
