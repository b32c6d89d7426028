package orch

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
)

// ensembleConfig keeps the control-plane clocks fast enough for tests but
// slow enough that elections do not preempt a healthy leader under -race.
func ensembleConfig(members int) Config {
	return Config{
		HeartbeatEvery:   5 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Millisecond,
		Misses:           2,
		RecoveryTimeout:  5 * time.Second,
		Members:          members,
		LeaseEvery:       5 * time.Millisecond,
		ElectionAfter:    60 * time.Millisecond,
	}
}

func waitSuccess(t *testing.T, e *Orchestrator, idx int, within time.Duration) RecoveryReport {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		for _, rep := range e.Reports() {
			if rep.RingIndex == idx && rep.Err == nil {
				return rep
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no successful recovery of ring %d within %v; reports=%v", idx, within, e.Reports())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEnsembleFailoverResumes kills the leader at each recovery phase and
// checks that the successor resumes — not restarts — the in-flight
// recovery: same epoch, and (when the replacement was already spawned)
// the same replacement node.
func TestEnsembleFailoverResumes(t *testing.T) {
	for _, kill := range []Phase{PhaseSpawned, PhaseFetched, PhaseAdopted} {
		kill := kill
		t.Run(kill.String(), func(t *testing.T) {
			f, ch, gen, sink := buildChain(t, netsim.Config{Seed: 7})
			e := New(ensembleConfig(3), f, "orch", ch)
			var killed atomic.Bool
			var replacement atomic.Value // netsim.NodeID
			e.OnPhase = func(ev PhaseEvent) {
				if ev.Phase == kill && killed.CompareAndSwap(false, true) {
					replacement.Store(ev.Replacement)
					e.CrashLeader()
				}
			}
			e.Start()
			defer e.Stop()

			pump(t, ch, gen, sink, 50)
			ch.Crash(1)

			rep := waitSuccess(t, e, 1, 10*time.Second)
			if !killed.Load() {
				t.Fatal("rider never killed the leader")
			}
			if !rep.Resumed {
				t.Fatalf("recovery not marked Resumed: %+v", rep)
			}
			if rep.Term < 2 {
				t.Fatalf("resumed recovery should carry the successor's term, got %d", rep.Term)
			}
			if lead, term := e.Leader(); lead == 0 || term < 2 {
				t.Fatalf("expected a follower to lead at term >= 2, got member %d term %d", lead, term)
			}
			if e.Takeovers() < 2 {
				t.Fatalf("expected >= 2 takeovers, got %d", e.Takeovers())
			}
			// Resume, not restart: the half-built replacement survives the
			// failover and ends up owning the ring position.
			want := replacement.Load().(netsim.NodeID)
			if got := ch.RingID(1); got != want {
				t.Fatalf("ring position 1 owned by %s, want the pre-failover replacement %s", got, want)
			}
			view := e.View()
			if len(view.InFlight) != 0 {
				t.Fatalf("log still shows in-flight recoveries after success: %+v", view.InFlight)
			}
			for ring, epochs := range view.Succeeded {
				for ep, n := range epochs {
					if n > 1 {
						t.Fatalf("ring %d epoch %d recovered %d times", ring, ep, n)
					}
				}
			}
			pump(t, ch, gen, sink, 50)
		})
	}
}

// TestEnsembleKillDuringTakeover kills the leader mid-recovery and then
// kills the successor during its takeover (from the OnLeader hook, before
// it resumes anything); the third leader must finish the job. Five members
// keep a quorum alive through two crashes.
func TestEnsembleKillDuringTakeover(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{Seed: 11})
	e := New(ensembleConfig(5), f, "orch", ch)
	var killed atomic.Bool
	var successorKilled atomic.Bool
	var replacement atomic.Value
	e.OnPhase = func(ev PhaseEvent) {
		if ev.Phase == PhaseSpawned && killed.CompareAndSwap(false, true) {
			replacement.Store(ev.Replacement)
			e.CrashLeader()
		}
	}
	e.OnLeader = func(term uint64, member int) {
		if term == 2 && successorKilled.CompareAndSwap(false, true) {
			e.CrashMember(member)
		}
	}
	e.Start()
	defer e.Stop()

	pump(t, ch, gen, sink, 50)
	ch.Crash(1)

	rep := waitSuccess(t, e, 1, 15*time.Second)
	if !killed.Load() || !successorKilled.Load() {
		t.Fatalf("riders did not fire: leader=%v successor=%v", killed.Load(), successorKilled.Load())
	}
	if !rep.Resumed || rep.Term < 3 {
		t.Fatalf("expected the third leader to resume (term >= 3), got %+v", rep)
	}
	want := replacement.Load().(netsim.NodeID)
	if got := ch.RingID(1); got != want {
		t.Fatalf("ring position 1 owned by %s, want pre-failover replacement %s", got, want)
	}
	if e.Takeovers() < 3 {
		t.Fatalf("expected >= 3 takeovers, got %d", e.Takeovers())
	}
	pump(t, ch, gen, sink, 50)
}

// TestEnsembleFenceRejectsDeposedLeader is the fencing negative control:
// after a failover, a stale command replayed with the deposed leader's
// term against the already-recovered group must be rejected and counted.
func TestEnsembleFenceRejectsDeposedLeader(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{Seed: 13})
	e := New(ensembleConfig(3), f, "orch", ch)
	var killed atomic.Bool
	e.OnPhase = func(ev PhaseEvent) {
		if ev.Phase == PhaseFetched && killed.CompareAndSwap(false, true) {
			e.CrashLeader()
		}
	}
	e.Start()
	defer e.Stop()

	pump(t, ch, gen, sink, 50)
	ch.Crash(1)
	waitSuccess(t, e, 1, 10*time.Second)

	if term := ch.ControllerTerm(); term < 2 {
		t.Fatalf("chain should be fenced at the successor's term, got %d", term)
	}
	before := ch.FencedCommands()
	// The deposed leader led term 1; replay its recovery commands.
	if _, err := ch.Spawn(1, 1); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("stale spawn: got %v, want ErrFenced", err)
	}
	nr, err := ch.Spawn(1, ch.ControllerTerm())
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.RecoverState(context.Background(), nr, 1); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("stale state recovery: got %v, want ErrFenced", err)
	}
	if err := ch.Adopt(nr, 1); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("stale adopt: got %v, want ErrFenced", err)
	}
	ch.Abort(nr)
	if got := ch.FencedCommands(); got < before+3 {
		t.Fatalf("fenced-command counter did not move: before=%d after=%d", before, got)
	}
	pump(t, ch, gen, sink, 50)
}

// TestEnsembleCrashLeaksNoGoroutines is the goroutine-leak regression for
// crashed orchestrators: two leader crashes, a full recovery, and a Stop
// must return the process to its pre-ensemble goroutine count.
func TestEnsembleCrashLeaksNoGoroutines(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{Seed: 17})
	pump(t, ch, gen, sink, 20) // settle chain goroutines before baselining
	time.Sleep(20 * time.Millisecond)
	before := runtime.NumGoroutine()

	e := New(ensembleConfig(5), f, "orch", ch)
	var kills atomic.Int32
	e.OnPhase = func(ev PhaseEvent) {
		if ev.Phase == PhaseSpawned && kills.Add(1) <= 2 {
			e.CrashLeader()
		}
	}
	e.Start()
	ch.Crash(1)
	waitSuccess(t, e, 1, 15*time.Second)
	e.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEnsembleOfOne checks that a one-member orchestrator detects, recovers
// and reports without marking the recovery as resumed.
func TestEnsembleOfOne(t *testing.T) {
	f, ch, gen, sink := buildChain(t, netsim.Config{})
	e := New(ensembleConfig(1), f, "orch", ch)
	e.Start()
	defer e.Stop()
	pump(t, ch, gen, sink, 50)
	ch.Crash(1)
	if rep := waitSuccess(t, e, 1, 10*time.Second); rep.Resumed {
		t.Fatalf("no failover happened; recovery must not be marked resumed: %+v", rep)
	}
	if e.Detected() == 0 {
		t.Fatal("detector never fired")
	}
	pump(t, ch, gen, sink, 50)
}

// TestReplay exercises the log replay used by takeover and the chaos
// audits.
func TestReplay(t *testing.T) {
	mk := func(cmds ...Command) []Entry {
		es := make([]Entry, len(cmds))
		for i, c := range cmds {
			es[i] = Entry{Index: uint64(i), Cmd: c}
		}
		return es
	}
	v := Replay(mk(
		Command{Kind: CmdElect, Term: 1, Member: 0},
		Command{Kind: CmdRecoveryStart, Term: 1, Ring: 2, Epoch: 1},
		Command{Kind: CmdRecoveryPhase, Term: 1, Ring: 2, Epoch: 1, Phase: PhaseSpawned, Replacement: "r"},
		Command{Kind: CmdElect, Term: 2, Member: 1},
		Command{Kind: CmdRecoveryPhase, Term: 2, Ring: 2, Epoch: 1, Phase: PhaseFetched, Replacement: "r"},
	))
	inf, ok := v.InFlight[2]
	if !ok || inf.Epoch != 1 || inf.Phase != PhaseFetched || inf.Replacement != "r" {
		t.Fatalf("bad in-flight view: %+v", v.InFlight)
	}
	if v.Leader != 1 || v.Term != 2 || v.Elections != 2 {
		t.Fatalf("bad leadership view: %+v", v)
	}

	v = Replay(mk(
		Command{Kind: CmdRecoveryStart, Term: 1, Ring: 0, Epoch: 1},
		Command{Kind: CmdRecoveryDone, Term: 1, Ring: 0, Epoch: 1},
		Command{Kind: CmdRecoveryDone, Term: 2, Ring: 0, Epoch: 1},
	))
	if len(v.InFlight) != 0 {
		t.Fatalf("done recovery still in flight: %+v", v.InFlight)
	}
	if v.Succeeded[0][1] != 2 {
		t.Fatalf("double recovery not counted: %+v", v.Succeeded)
	}

	v = Replay(mk(
		Command{Kind: CmdRecoveryStart, Term: 1, Ring: 1, Epoch: 3},
		Command{Kind: CmdRecoveryDone, Term: 1, Ring: 1, Epoch: 3, Note: "fetch failed"},
	))
	if len(v.InFlight) != 0 || len(v.Succeeded) != 0 {
		t.Fatalf("failed recovery mis-replayed: %+v", v)
	}
}
