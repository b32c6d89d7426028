package ftc

import (
	"encoding/binary"
	"testing"
	"time"
)

func deployTest(t *testing.T, mbs []Middlebox, opt Options) *Deployment {
	t.Helper()
	dep, err := Deploy(mbs, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	return dep
}

func TestDeployRejectsEmptyChain(t *testing.T) {
	if _, err := Deploy(nil, Options{}); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestDeployEndToEnd(t *testing.T) {
	dep := deployTest(t, []Middlebox{
		NewFirewall(nil, true),
		NewMonitor(1, 2),
		NewSimpleNAT(Addr4(203, 0, 113, 1), 10000, 20000),
	}, Options{F: 1, Workers: 2})

	sent := dep.Generator.Offer(20000, 200*time.Millisecond)
	if sent == 0 {
		t.Fatal("nothing sent")
	}
	got := dep.WaitForEgress(sent/2, 15*time.Second)
	if got < sent/2 {
		t.Fatalf("egress %d of %d", got, sent)
	}
	// NAT state exists and is replicated in-chain.
	if dep.Chain.Replica(2).Head().Store().Len() == 0 {
		t.Fatal("NAT recorded no flows")
	}
}

func TestDeployCrashRecover(t *testing.T) {
	dep := deployTest(t, []Middlebox{
		NewMonitor(1, 2),
		NewMonitor(1, 2),
		NewMonitor(1, 2),
	}, Options{F: 1, Workers: 2})

	dep.Generator.Offer(10000, 150*time.Millisecond)
	dep.WaitForEgress(100, 10*time.Second)

	count := func() uint64 {
		var total uint64
		st := dep.Chain.Replica(1).Head().Store()
		for g := 0; g < 2; g++ {
			if v, ok := st.Get("pkt-count-" + string(rune('0'+g))); ok && len(v) == 8 {
				total += binary.BigEndian.Uint64(v)
			}
		}
		return total
	}
	// Quiesce: wait until mb1's follower has caught up with its head, so
	// the pre-crash count is fully replicated. (FTC guarantees the effects
	// of *released* packets survive; unreplicated in-flight updates of
	// unreleased packets may legitimately be lost with the head.)
	quiesce := time.Now().Add(10 * time.Second)
	var prev []uint64
	stableSince := time.Now()
	for {
		hv := dep.Chain.Replica(1).Head().Vector()
		fm := dep.Chain.Replica(2).Follower(1).Max()
		caught := true
		for p := range hv {
			if fm[p] < hv[p] {
				caught = false
				break
			}
		}
		same := prev != nil
		for p := range hv {
			if prev == nil || hv[p] != prev[p] {
				same = false
				break
			}
		}
		if !same {
			stableSince = time.Now()
		}
		prev = hv
		// Quiesced: follower caught up and no new transactions for 50ms.
		if caught && time.Since(stableSince) > 50*time.Millisecond {
			break
		}
		if time.Now().After(quiesce) {
			t.Fatal("chain never quiesced before crash")
		}
		time.Sleep(time.Millisecond)
	}
	before := count()
	if before == 0 {
		t.Fatal("no counts before crash")
	}
	dep.Chain.Crash(1)
	rep := dep.Orchestrator.Recover(1)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if got := count(); got < before {
		t.Fatalf("state lost: %d < %d", got, before)
	}
	// Chain still forwards.
	beforeEgress := dep.Sink.Received()
	dep.Generator.Offer(10000, 100*time.Millisecond)
	if got := dep.WaitForEgress(beforeEgress+50, 10*time.Second); got < beforeEgress+50 {
		t.Fatalf("chain stalled after recovery: %d", got-beforeEgress)
	}
}

func TestDeployLatencyMeasurement(t *testing.T) {
	dep := deployTest(t, []Middlebox{NewMonitor(1, 1)}, Options{})
	dep.Generator.Offer(5000, 100*time.Millisecond)
	dep.WaitForEgress(10, 10*time.Second)
	time.Sleep(50 * time.Millisecond)
	if dep.Sink.Latency().Count() == 0 {
		t.Fatal("no latency samples")
	}
	if dep.Sink.Latency().Quantile(0.5) <= 0 {
		t.Fatal("bad median")
	}
}

func TestDeployCustomMiddlebox(t *testing.T) {
	drop := &dropAll{}
	dep := deployTest(t, []Middlebox{drop}, Options{})
	dep.Generator.Offer(5000, 100*time.Millisecond)
	time.Sleep(200 * time.Millisecond)
	if dep.Sink.Received() != 0 {
		t.Fatal("drop-all middlebox leaked packets")
	}
	if dep.Chain.Replica(0).Stats().Filtered.Load() == 0 {
		t.Fatal("nothing filtered")
	}
}

// dropAll is a custom middlebox written against the public API.
type dropAll struct{}

func (dropAll) Name() string { return "drop-all" }

func (dropAll) Process(_ *Packet, tx Txn) (Verdict, error) {
	// Count drops in replicated state to exercise the filtered-packet
	// propagating path.
	v, _, err := tx.Get("drops")
	if err != nil {
		return Drop, err
	}
	return Drop, tx.Put("drops", append(v[:0:0], 1))
}

func TestFirewallRuleTypeAlias(t *testing.T) {
	fw := NewFirewall([]FirewallRule{{DstPort: 22, Allow: false}}, true)
	if fw.Name() != "Firewall" {
		t.Fatal("firewall alias broken")
	}
}
