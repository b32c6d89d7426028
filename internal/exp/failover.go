package exp

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/orch"
	"github.com/ftsfc/ftc/internal/tgen"
)

// FigFailover measures orchestrator-ensemble failover (DESIGN.md §14): for
// each recovery phase, crash a ring replica, fail-stop the ensemble leader
// the instant its in-flight recovery replicates that phase, and report how
// the successor resumed the recovery — the control-plane outage the chain
// absorbs on top of the data-plane recovery Fig 13 measures. A Resumed=yes
// row means the successor continued the predecessor's half-built
// replacement from the replicated log rather than starting over.
func FigFailover(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		ID:     "Failover",
		Title:  "Recovery resumption across orchestrator leader failover (3-member ensemble)",
		Header: []string{"Leader killed at", "Takeovers", "Resumed", "Outage", "Recovery total"},
	}
	for _, phase := range []orch.Phase{orch.PhaseSpawned, orch.PhaseFetched, orch.PhaseAdopted} {
		row, err := failoverRun(p, phase)
		if err != nil {
			return nil, fmt.Errorf("leader kill at %v: %w", phase, err)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"outage: replica crash to recovery completion, spanning leader detection+election",
		"a kill after the adopted phase is replicated leaves nothing to resume: the successor only closes the log")
	return t, nil
}

func failoverRun(p Params, phase orch.Phase) ([]string, error) {
	fabric := netsim.New(netsim.Config{})
	defer fabric.Stop()
	sink := tgen.NewSink(fabric, "sink")
	defer sink.Stop()

	cfg := core.Config{F: p.F, Workers: 2, QueueCap: 4096, PropagateEvery: 2 * time.Millisecond}
	chain := core.NewChain(cfg, fabric, "fo", RecChain()(2), sink.ID())
	chain.Start()
	defer chain.Stop()

	e := orch.New(orch.Config{
		HeartbeatEvery:   2 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Millisecond,
		Misses:           3,
		RecoveryTimeout:  5 * time.Second,
		Members:          3,
		LeaseEvery:       2 * time.Millisecond,
		ElectionAfter:    25 * time.Millisecond,
	}, fabric, "fo-orch", chain)
	var killed atomic.Bool
	e.OnPhase = func(ev orch.PhaseEvent) {
		if ev.Phase == phase && killed.CompareAndSwap(false, true) {
			e.CrashLeader()
		}
	}
	e.Start()
	defer e.Stop()

	// Seed per-flow state so the resumed fetch moves real data.
	gen, err := tgen.NewGenerator(fabric, "fo-gen", chain.IngressID(), tgen.Spec{Flows: 64, PacketSize: p.PacketSize})
	if err != nil {
		return nil, err
	}
	gen.Offer(2000, 200*time.Millisecond)
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	chain.Crash(1)
	rep := e.Recover(1)
	outage := time.Since(start)
	if rep.Err != nil {
		return nil, rep.Err
	}
	if !killed.Load() {
		return nil, fmt.Errorf("recovery finished without reaching phase %v", phase)
	}
	resumed := "no"
	if rep.Resumed {
		resumed = "yes"
	}
	return []string{
		phase.String(),
		fmt.Sprintf("%d", e.Takeovers()),
		resumed,
		outage.Round(100 * time.Microsecond).String(),
		rep.Total.Round(100 * time.Microsecond).String(),
	}, nil
}
