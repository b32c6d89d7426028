//go:build stress

package fleet

import "testing"

// TestSmokeMeetsSLA is the fleet's latency gate: every chain that
// scenarios/smoke.json admits must keep its p99 response latency within
// its 50 ms SLA. A p99 depends on the host's load, so Report.Violations
// leaves SLA misses out and this test is built with -tags stress: make
// stress runs it, the plain suite does not.
func TestSmokeMeetsSLA(t *testing.T) {
	scn, err := LoadScenario("../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(scn, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	for _, c := range rep.Chains {
		if c.SLAViolated {
			t.Errorf("chain %s: p99 latency %v exceeds SLA %v", c.Name, c.LatencyP99, c.MaxLatency)
		}
	}
	t.Log(rep.OneLine())
}
