package chaos_test

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/chaos"
	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/orch"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

var (
	chaosSeed  = flag.Int64("chaos.seed", 0, "replay exactly this campaign seed (verbose trace)")
	chaosBase  = flag.Int64("chaos.base", 1, "first campaign seed")
	chaosCount = flag.Int("chaos.count", 8, "number of consecutive seeds to run (any 2 cover f=1 and f=2)")
	chaosSoak  = flag.Int("chaos.soak", 0, "keep running seeds for at least this many seconds (nightly soak lane)")
)

func repro(seed int64) string {
	return fmt.Sprintf("go test -race ./internal/chaos -run TestChaosCampaign -chaos.seed=%d -v", seed)
}

// runSeed derives and runs one campaign, reporting violations with a
// copy-pasteable repro line.
func runSeed(t *testing.T, seed int64, verbose bool) *chaos.Result {
	t.Helper()
	c := chaos.Derive(seed)
	if err := c.Validate(); err != nil {
		t.Fatalf("seed %d derived an invalid schedule: %v\nrepro: %s", seed, err, repro(seed))
	}
	var opt chaos.Options
	if verbose {
		opt.Trace = func(format string, args ...any) { t.Logf(format, args...) }
	}
	res := chaos.Run(c, opt)
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		t.Errorf("seed %d (f=%d): %d invariant violations\nrepro: %s",
			seed, c.F, len(res.Violations), repro(seed))
	}
	t.Logf("%s", res.OneLine())
	return res
}

// TestChaosCampaign is the campaign driver: by default it runs
// -chaos.count consecutive seeds starting at -chaos.base; -chaos.soak=N
// keeps going for at least N seconds (the nightly lane); -chaos.seed=M
// replays one seed with a verbose trace.
func TestChaosCampaign(t *testing.T) {
	if *chaosSeed != 0 {
		runSeed(t, *chaosSeed, true)
		return
	}
	deadline := time.Now().Add(time.Duration(*chaosSoak) * time.Second)
	delivered, ran := 0, 0
	for seed := *chaosBase; ; seed++ {
		if ran >= *chaosCount && (*chaosSoak == 0 || time.Now().After(deadline)) {
			break
		}
		delivered += runSeed(t, seed, false).Delivered
		ran++
	}
	// Campaigns tolerate zero delivery individually (a partition can
	// swallow a short workload), but across a sweep the chain must move
	// packets or the harness is vacuous.
	if delivered == 0 {
		t.Fatalf("%d campaigns delivered zero packets — harness is not exercising the chain", ran)
	}
	t.Logf("chaos: %d campaigns, %d packets delivered end-to-end", ran, delivered)
}

// TestControlChaosCampaign is the control-plane attack lane: a fixed seed
// set covering every orchestrator-kill combination — leader killed at
// each recovery phase, alone and together with its successor killed
// during takeover. It runs on every PR (CI's control-chaos job), so it is
// sized to finish well under two minutes even with -race; failures
// reproduce with the same -chaos.seed line as the main campaign.
func TestControlChaosCampaign(t *testing.T) {
	if *chaosSeed != 0 {
		t.Skip("single-seed replay runs via TestChaosCampaign")
	}
	// k = (seed>>4)&7 selects the kill: one seed per k in 1..6, with the
	// low bits varying the matrix cell too.
	seeds := []int64{17, 34, 51, 68, 85, 102}
	combos := map[string]bool{}
	for _, seed := range seeds {
		c := chaos.Derive(seed)
		if c.OrchKill == nil {
			t.Fatalf("seed %d no longer derives an orchestrator kill", seed)
		}
		combos[fmt.Sprintf("%v/successor=%v", c.OrchKill.Phase, c.OrchKill.KillSuccessor)] = true
		res := runSeed(t, seed, false)
		wantKills, wantTakeovers := 1, 2
		if c.OrchKill.KillSuccessor {
			wantKills, wantTakeovers = 2, 3
		}
		if res.LeaderKills < wantKills {
			t.Errorf("seed %d: leader-kill rider fired %d times, want %d\nrepro: %s",
				seed, res.LeaderKills, wantKills, repro(seed))
		}
		if int(res.Takeovers) < wantTakeovers {
			t.Errorf("seed %d: %d takeovers, want ≥ %d (failover never completed)\nrepro: %s",
				seed, res.Takeovers, wantTakeovers, repro(seed))
		}
	}
	if len(combos) != 6 {
		t.Fatalf("seed set covers %d of 6 leader-kill combinations: %v", len(combos), combos)
	}
}

// TestCheckerCatchesOrphanedRecovery is the control-log negative control:
// a fabricated log with a started-but-never-finished recovery must trip
// the orphan audit, and closing it must clear the finding.
func TestCheckerCatchesOrphanedRecovery(t *testing.T) {
	entries := []orch.Entry{
		{Index: 0, Cmd: orch.Command{Kind: orch.CmdElect, Term: 1, Member: 0}},
		{Index: 1, Cmd: orch.Command{Kind: orch.CmdRecoveryStart, Term: 1, Ring: 1, Epoch: 1}},
		{Index: 2, Cmd: orch.Command{Kind: orch.CmdRecoveryPhase, Term: 1, Ring: 1, Epoch: 1, Phase: orch.PhaseSpawned, Replacement: "repl"}},
	}
	vs := chaos.CheckControlLog(orch.Replay(entries))
	if len(vs) != 1 || vs[0].Invariant != chaos.InvOrphanedRecovery {
		t.Fatalf("orphaned recovery not caught: %v", vs)
	}
	closed := append(entries, orch.Entry{Index: 3,
		Cmd: orch.Command{Kind: orch.CmdRecoveryDone, Term: 2, Ring: 1, Epoch: 1}})
	if vs := chaos.CheckControlLog(orch.Replay(closed)); len(vs) != 0 {
		t.Fatalf("clean log flagged: %v", vs)
	}
}

// TestCheckerCatchesDoubleRecovery is the fencing negative control at the
// audit level: two successful completions of the same recovery epoch (a
// deposed leader racing its successor past the fence) must trip the
// double-recovery audit.
func TestCheckerCatchesDoubleRecovery(t *testing.T) {
	entries := []orch.Entry{
		{Index: 0, Cmd: orch.Command{Kind: orch.CmdRecoveryStart, Term: 1, Ring: 2, Epoch: 4}},
		{Index: 1, Cmd: orch.Command{Kind: orch.CmdRecoveryDone, Term: 1, Ring: 2, Epoch: 4}},
		{Index: 2, Cmd: orch.Command{Kind: orch.CmdRecoveryDone, Term: 2, Ring: 2, Epoch: 4}},
	}
	vs := chaos.CheckControlLog(orch.Replay(entries))
	if len(vs) != 1 || vs[0].Invariant != chaos.InvDoubleRecovery {
		t.Fatalf("double recovery not caught: %v", vs)
	}
}

// TestCheckerCatchesFalseRecovery is the negative control for suspicions
// taken for failures: a report replacing a node the campaign neither
// crashed nor cut off must trip the audit; one replacing a crashed or a
// cut-off node must not.
func TestCheckerCatchesFalseRecovery(t *testing.T) {
	crashed := map[netsim.NodeID]bool{"r1": true}
	cut := map[netsim.NodeID]bool{"r2": true}
	reps := []orch.RecoveryReport{{RingIndex: 1, Failed: "r1"}, {RingIndex: 2, Failed: "r2"}}
	if vs := chaos.CheckRecoveries(reps, crashed, cut); len(vs) != 0 {
		t.Fatalf("recoveries of a crashed and a cut-off node flagged: %v", vs)
	}
	vs := chaos.CheckRecoveries(append(reps, orch.RecoveryReport{RingIndex: 0, Failed: "r0"}), crashed, cut)
	if len(vs) != 1 || vs[0].Invariant != chaos.InvFalseRecovery {
		t.Fatalf("recovery of a healthy node not caught: %v", vs)
	}
}

// TestScheduleDeterministicAndValid is the schedule property test: Derive
// is a pure function of the seed, and every derived schedule stays inside
// the ≤ f failure envelope that Validate enforces.
func TestScheduleDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		a, b := chaos.Derive(seed), chaos.Derive(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Derive is not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: derived schedule invalid: %v", seed, err)
		}
		if a.RingLen() <= a.F {
			t.Fatalf("seed %d: ring of %d cannot tolerate f=%d", seed, a.RingLen(), a.F)
		}
	}
}

// TestScheduleMatrixCoverage checks that any 2 consecutive seeds sweep the
// full f=1..2 matrix.
func TestScheduleMatrixCoverage(t *testing.T) {
	for _, base := range []int64{1, 17, 1000} {
		seen := map[int]bool{}
		for seed := base; seed < base+2; seed++ {
			seen[chaos.Derive(seed).F] = true
		}
		if !seen[1] || !seen[2] {
			t.Fatalf("seeds %d..%d cover f=%v, want f=1 and f=2", base, base+1, seen)
		}
	}
}

// TestCheckerCatchesDuplicateEgress is a negative control at the checker
// level: a fabricated duplicate delivery must trip the egress audit.
func TestCheckerCatchesDuplicateEgress(t *testing.T) {
	flow := wire.FiveTuple{Src: wire.Addr4(10, 0, 0, 1), Dst: wire.Addr4(192, 0, 2, 1), SrcPort: 1, DstPort: 2, Proto: 17}
	records := []chaos.EgressRecord{{ID: 3, Flow: flow}, {ID: 4, Flow: flow}, {ID: 3, Flow: flow}}
	vs := chaos.CheckEgress(records, 10)
	if len(vs) != 1 || vs[0].Invariant != chaos.InvDuplicateEgress {
		t.Fatalf("duplicate delivery not caught: %v", vs)
	}
	if vs := chaos.CheckEgress([]chaos.EgressRecord{{ID: 99, Flow: flow}}, 10); len(vs) != 1 || vs[0].Invariant != chaos.InvUnknownEgress {
		t.Fatalf("unknown payload id not caught: %v", vs)
	}
	if vs := chaos.CheckEgress(records[:2], 10); len(vs) != 0 {
		t.Fatalf("clean records flagged: %v", vs)
	}
}

// TestCheckerCatchesTamperedStore is the end-to-end negative control: run
// a normal campaign, then corrupt one head store after quiescence — the
// convergence audit must fire, proving a real divergence cannot slip
// through the harness.
func TestCheckerCatchesTamperedStore(t *testing.T) {
	c := chaos.Derive(1)
	opt := chaos.Options{PostQuiesce: func(ch *core.Chain) {
		st := ch.Replica(0).Head().Store()
		st.Restore(append(st.Snapshot(), state.Update{Key: "chaos-tamper", Value: []byte{0xde, 0xad}}))
	}}
	res := chaos.Run(c, opt)
	found := false
	for _, v := range res.Violations {
		if v.Invariant == chaos.InvDivergentStores {
			found = true
		}
	}
	if !found {
		t.Fatalf("tampered head store not detected; violations: %v", res.Violations)
	}
}

// TestCheckerCatchesResurrectedFlow is the expiry negative control: run a
// FlowTTL campaign and plant a flow-prefixed key in a head store after the
// forced-expiry epoch — the resurrection audit must fire (and so must the
// convergence audit, since only the head was tampered with). It also proves
// the positive path: an untampered FlowTTL campaign on the same seed passes.
func TestCheckerCatchesResurrectedFlow(t *testing.T) {
	c := chaos.Derive(9) // seed bit 3 set: FlowTTL on
	if !c.FlowTTL {
		t.Fatal("seed 9 no longer derives a FlowTTL campaign")
	}
	opt := chaos.Options{PostExpire: func(ch *core.Chain) {
		st := ch.Replica(0).Head().Store()
		st.Apply([]state.Update{{
			Key:       "fc0-zombie",
			Value:     []byte{0, 0, 0, 0, 0, 0, 0, 1},
			Partition: st.PartitionOf("fc0-zombie"),
		}})
	}}
	res := chaos.Run(c, opt)
	found := false
	for _, v := range res.Violations {
		if v.Invariant == chaos.InvFlowResurrected {
			found = true
		}
	}
	if !found {
		t.Fatalf("fabricated resurrected flow key not detected; violations: %v", res.Violations)
	}
}

// TestCheckerCatchesGroupWipeout is the f+1 negative control: crashing an
// entire replication group (2 adjacent positions at f=1) exceeds the
// protocol's tolerance, and the harness must say so rather than pass.
func TestCheckerCatchesGroupWipeout(t *testing.T) {
	c := chaos.Campaign{
		Seed: 424242, F: 1,
		ChainLen: 2, Workers: 2, Flows: 4, Packets: 80,
		PaceEvery: 10, Pace: time.Millisecond,
		Episodes:      []chaos.Episode{{After: 30 * time.Millisecond, Crashes: []int{0, 1}}},
		RecoveryBound: time.Second, QuiesceTimeout: time.Second,
	}
	if err := c.Validate(); err == nil {
		t.Fatal("an f+1 simultaneous-crash schedule passed validation")
	} else if !strings.Contains(err.Error(), "concurrent replica failures") {
		t.Fatalf("unexpected validation error: %v", err)
	}
	res := chaos.Run(c, chaos.Options{})
	if !res.Failed() {
		t.Fatal("wiping out a whole replication group produced no violations — the harness cannot fail")
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == chaos.InvRecoveryFailed {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a %s violation, got: %v", chaos.InvRecoveryFailed, res.Violations)
	}
}
