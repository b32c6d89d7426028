package fleet

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/ftsfc/ftc/internal/orch"
)

// traceTo wires broker traces into the test log under -v.
func traceTo(t *testing.T) Options {
	t.Helper()
	return Options{Trace: func(format string, args ...any) {
		t.Logf(format, args...)
	}}
}

// The acceptance scenario: four concurrent chains sharing a four-server
// pool, a fifth whose demand no server can carry, and a mid-run crash of
// s0 — which hosts a middlebox of one chain and, by the replica-sharing
// policy, an extension replica of another. Every admitted chain must end
// reclaimed with convergent stores, the rejected chain must count against
// the acceptance ratio, and both chains touching s0 must log a recovery.
func TestFleetScenarioEndToEnd(t *testing.T) {
	scn, err := ParseScenario([]byte(`{
  "name": "e2e", "seed": 11,
  "pool": {"servers": 4, "cpu_per_server": 4, "bandwidth_mbps": 1000},
  "traffic": {"packet_size": 256, "rate_scale": 0.004, "flow_ttl_ms": 60000},
  "chains": [
    {"name": "c0", "arrival_ms": 0, "ttl_ms": 2600, "bandwidth_mbps": 300, "users": 16, "f": 1, "middleboxes": ["monitor", "flowcounter"]},
    {"name": "c1", "arrival_ms": 100, "ttl_ms": 2500, "bandwidth_mbps": 300, "users": 12, "f": 1, "middleboxes": ["nat"]},
    {"name": "c2", "arrival_ms": 200, "ttl_ms": 2300, "bandwidth_mbps": 300, "users": 12, "f": 1, "middleboxes": ["flowcounter"]},
    {"name": "c3", "arrival_ms": 300, "ttl_ms": 2200, "bandwidth_mbps": 300, "users": 16, "f": 1, "middleboxes": ["monitor", "genflows"]},
    {"name": "toofat", "arrival_ms": 400, "ttl_ms": 1000, "bandwidth_mbps": 2000, "users": 8, "f": 1, "middleboxes": ["monitor"]}
  ],
  "crashes": [{"at_ms": 1200, "server": "s0"}]
}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := Run(scn, traceTo(t))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if rep.Total != 5 || rep.Admitted != 4 || rep.Rejected != 1 {
		t.Fatalf("admission counts: total=%d admitted=%d rejected=%d", rep.Total, rep.Admitted, rep.Rejected)
	}
	if rep.AcceptanceRatio != 0.8 {
		t.Fatalf("acceptance ratio = %v, want 0.8", rep.AcceptanceRatio)
	}
	if rep.ReplicaOnlyPeak != 0 {
		t.Fatalf("replica-only peak = %d: a server served as a dedicated replica host", rep.ReplicaOnlyPeak)
	}

	byName := map[string]ChainReport{}
	for _, c := range rep.Chains {
		byName[c.Name] = c
	}
	if got := byName["toofat"].State; got != StateRejected {
		t.Fatalf("toofat ended %v, want rejected", got)
	}
	chainsRecovered := 0
	for _, name := range []string{"c0", "c1", "c2", "c3"} {
		c := byName[name]
		if c.State != StateReclaimed {
			t.Errorf("chain %s ended %v, want reclaimed", name, c.State)
		}
		if c.Delivered == 0 {
			t.Errorf("chain %s delivered no traffic (sent %d)", name, c.Sent)
		}
		if c.Deletions == 0 && name != "c1" {
			// monitor-only hops hold no per-flow state; every other chain here
			// carries a FlowTTLer middlebox and must drain flows at teardown.
			t.Errorf("chain %s reclaimed zero flow entries through the TTL path", name)
		}
		if c.Recoveries > 0 {
			chainsRecovered++
		}
	}
	// s0 is shared: the crash must have cost at least two distinct chains a
	// replica each, and the broker must have recovered all of them.
	if chainsRecovered < 2 {
		t.Errorf("crash of shared s0 recovered replicas of %d chains, want >= 2", chainsRecovered)
	}
	if rep.RecoveryFailures != 0 {
		t.Errorf("%d ring positions unrestored", rep.RecoveryFailures)
	}
	var s0 ServerReport
	for _, s := range rep.Servers {
		if s.Name == "s0" {
			s0 = s
		}
	}
	if !s0.Down {
		t.Error("s0 not reported down")
	}
	if rep.SteerForwarded == 0 {
		t.Error("steering forwarded nothing")
	}
}

// A fleet whose every chain outstrips the pool rejects everything, runs no
// traffic, and still produces a clean (violation-free) report.
func TestFleetAllRejected(t *testing.T) {
	scn, err := ParseScenario([]byte(`{
  "name": "overloaded",
  "pool": {"servers": 2, "cpu_per_server": 1, "bandwidth_mbps": 100},
  "chains": [
    {"name": "a", "ttl_ms": 500, "bandwidth_mbps": 500, "users": 4, "middleboxes": ["monitor"]},
    {"name": "b", "arrival_ms": 50, "ttl_ms": 500, "bandwidth_mbps": 500, "users": 4, "middleboxes": ["monitor"]}
  ]
}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := Run(scn, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Admitted != 0 || rep.Rejected != 2 || rep.AcceptanceRatio != 0 {
		t.Fatalf("want all rejected: %+v", rep)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("rejections must not be violations: %v", v)
	}
	for _, c := range rep.Chains {
		if c.RejectReason == "" {
			t.Errorf("chain %s rejected without a reason", c.Name)
		}
	}
}

// TTL expiry racing crash-recovery: the crash is scheduled at the exact
// moment chain "racer"'s TTL fires. Whichever side takes rec.mu first wins;
// either ordering must end with the chain reclaimed, stores convergent, and
// no recovery attempted against a torn-down ring. Several seeds vary the
// interleaving.
func TestFleetTTLExpiryRacesRecovery(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			scn, err := ParseScenario([]byte(fmt.Sprintf(`{
  "name": "race", "seed": %d,
  "pool": {"servers": 3, "cpu_per_server": 4, "bandwidth_mbps": 1000},
  "traffic": {"rate_scale": 0.004, "flow_ttl_ms": 60000},
  "chains": [
    {"name": "racer", "ttl_ms": 900, "bandwidth_mbps": 200, "users": 8, "f": 1, "middleboxes": ["flowcounter"]},
    {"name": "bystander", "arrival_ms": 50, "ttl_ms": 1800, "bandwidth_mbps": 200, "users": 8, "f": 1, "middleboxes": ["monitor", "flowcounter"]}
  ],
  "crashes": [{"at_ms": 900, "server": "auto"}]
}`, seed)))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			rep, err := Run(scn, traceTo(t))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if v := rep.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
			for _, c := range rep.Chains {
				if c.State != StateReclaimed {
					t.Errorf("chain %s ended %v, want reclaimed", c.Name, c.State)
				}
			}
		})
	}
}

// Per-chain downtime budgets: an impossible budget must be reported as a
// violation when a recovery occurs, and only for the budgeted chain.
func TestFleetDowntimeBudgetViolation(t *testing.T) {
	scn, err := ParseScenario([]byte(`{
  "name": "budget",
  "pool": {"servers": 3, "cpu_per_server": 4, "bandwidth_mbps": 1000},
  "traffic": {"rate_scale": 0.004},
  "chains": [
    {"name": "tight", "ttl_ms": 1500, "bandwidth_mbps": 200, "users": 8, "f": 1, "downtime_ms": 0.000001, "middleboxes": ["flowcounter"]}
  ],
  "crashes": [{"at_ms": 700, "server": "auto"}]
}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := Run(scn, traceTo(t))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Recoveries == 0 {
		t.Fatal("scenario produced no recovery; budget check unexercised")
	}
	if rep.DowntimeViolations != 1 {
		t.Fatalf("downtime violations = %d, want 1", rep.DowntimeViolations)
	}
	found := false
	for _, v := range rep.Violations() {
		if strings.Contains(v, "downtime") {
			found = true
		}
	}
	if !found {
		t.Fatalf("budget overrun missing from violations: %v", rep.Violations())
	}
}

// TestFleetSurvivesOrchestratorFailover runs a shared-pool fleet with
// replicated per-chain orchestrators (orch_members: 3), kills each
// chain's orchestrator leader the moment its first recovery spawns a
// replacement, and crashes a shared server mid-run to force recoveries
// under load. The brokered chains must still end reclaimed, convergent,
// and fully restored — the failover shows up as nothing but latency —
// and at least one ensemble must have actually failed over.
func TestFleetSurvivesOrchestratorFailover(t *testing.T) {
	scn, err := ParseScenario([]byte(`{
  "name": "orch-failover", "seed": 23, "orch_members": 3,
  "pool": {"servers": 4, "cpu_per_server": 4, "bandwidth_mbps": 1000},
  "traffic": {"packet_size": 256, "rate_scale": 0.004, "flow_ttl_ms": 60000},
  "chains": [
    {"name": "c0", "arrival_ms": 0, "ttl_ms": 3200, "bandwidth_mbps": 300, "users": 16, "f": 1, "middleboxes": ["monitor", "flowcounter"]},
    {"name": "c1", "arrival_ms": 100, "ttl_ms": 3100, "bandwidth_mbps": 300, "users": 12, "f": 1, "middleboxes": ["flowcounter"]}
  ],
  "crashes": [{"at_ms": 1200, "server": "auto"}]
}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var mu sync.Mutex
	ensembles := map[string]*orch.Orchestrator{}
	opt := traceTo(t)
	opt.OrchHook = func(chain string, e *orch.Orchestrator) {
		mu.Lock()
		ensembles[chain] = e
		mu.Unlock()
		var once sync.Once
		e.OnPhase = func(ev orch.PhaseEvent) {
			once.Do(func() {
				t.Logf("killing %s orchestrator leader at phase %v of ring %d recovery", chain, ev.Phase, ev.RingIndex)
				e.CrashLeader()
			})
		}
	}
	rep, err := Run(scn, opt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if rep.RecoveryFailures != 0 {
		t.Fatalf("%d ring positions unrestored after orchestrator failover", rep.RecoveryFailures)
	}
	recoveries, failedOver := 0, 0
	for _, c := range rep.Chains {
		if c.State != StateReclaimed {
			t.Errorf("chain %s ended %v, want reclaimed", c.Name, c.State)
		}
		recoveries += c.Recoveries
	}
	if recoveries == 0 {
		t.Fatal("the server crash forced no recoveries; the failover path was never exercised")
	}
	mu.Lock()
	for chain, e := range ensembles {
		if e.Takeovers() >= 2 {
			failedOver++
			t.Logf("chain %s: %d takeovers, %d recoveries logged", chain, e.Takeovers(), len(e.Reports()))
		}
	}
	mu.Unlock()
	if failedOver == 0 {
		t.Fatal("no chain's orchestrator ensemble ever failed over")
	}
}
