package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// ttlFlowMB is flowMB with its per-flow counters opted into TTL aging.
type ttlFlowMB struct{ flowMB }

func (m *ttlFlowMB) FlowTTLPrefixes() []string { return []string{m.prefix + "-"} }

// expiryClockBase keeps the manual expiry clock positive and far from zero,
// so tick arithmetic never degenerates (nowTick 0 means "expiry off").
const expiryClockBase = int64(1e15)

// runExpiryWorkload runs the lossy burst workload with FlowTTL armed on the
// flow middleboxes and a manual expiry clock, then jumps the clock past the
// TTL and forces expiry. It returns the delivered count, the digest after
// normal traffic, and the digest after every flow entry aged out.
func runExpiryWorkload(t *testing.T, burst, n int) (int, string, string) {
	t.Helper()
	var offset atomic.Int64
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Burst = burst
	cfg.FlowTTL = time.Hour
	cfg.ExpiryClock = func() int64 { return expiryClockBase + offset.Load() }
	mbs := []Middlebox{
		&ttlFlowMB{flowMB{"a"}},
		&countMB{"c1"},
		&ttlFlowMB{flowMB{"b"}},
	}
	h := newHarness(t, cfg, mbs, netsim.Config{Seed: 42})
	h.fabric.SetLink("gen", h.chain.IngressID(), netsim.LinkProfile{LossRate: 0.15})

	h.sendPackets(t, n)
	ids := drainSink(t, h, 30*time.Second)
	waitForQuiescence(t, h, 0)
	pre := storeDigest(h)
	if !strings.Contains(pre, "a-") || !strings.Contains(pre, "b-") {
		t.Fatalf("workload left no flow keys to expire:\n%s", pre)
	}

	// Two hours pass: every flow entry is due. The deletions must replicate
	// through the normal log machinery before the chain re-quiesces. The
	// head's resend tick may expire some keys before TriggerExpiry does, so
	// the check is on what left the stores, not on who deleted it.
	offset.Add(int64(2 * time.Hour))
	h.chain.TriggerExpiry()
	waitForQuiescence(t, h, 0)
	if err := h.chain.CheckConvergence(); err != nil {
		t.Fatalf("after expiry: %v", err)
	}
	post := storeDigest(h)
	for _, line := range strings.Split(post, "\n") {
		if strings.HasPrefix(line, "a-") || strings.HasPrefix(line, "b-") {
			t.Fatalf("flow key survived forced expiry: %q", line)
		}
	}
	if !strings.Contains(post, "c1=") {
		t.Fatalf("shared counter c1 expired:\n%s", post)
	}
	return len(ids), pre, post
}

// TestExpiryBurstEquivalence extends the burst=1 vs burst=32 equivalence
// proof across flow aging: with FlowTTL armed, both burst sizes must produce
// identical chain-wide digests before and after forced expiry, and expiry
// must remove exactly the flow-prefixed keys from every
// head and follower store.
func TestExpiryBurstEquivalence(t *testing.T) {
	const n = 400
	t.Run("2pl", func(t *testing.T) {
		n1, pre1, post1 := runExpiryWorkload(t, 1, n)
		n32, pre32, post32 := runExpiryWorkload(t, 32, n)
		if n1 == 0 || n1 == n {
			t.Fatalf("loss link ineffective: %d of %d delivered", n1, n)
		}
		if n1 != n32 {
			t.Fatalf("delivered %d packets at burst=1, %d at burst=32", n1, n32)
		}
		if pre1 != pre32 {
			t.Fatalf("pre-expiry digests diverge:\nburst=1:\n%s\nburst=32:\n%s", pre1, pre32)
		}
		if post1 != post32 {
			t.Fatalf("post-expiry digests diverge:\nburst=1:\n%s\nburst=32:\n%s", post1, post32)
		}
	})
}

// TestExpiryRefreshKeepsActiveFlows checks the other half of the TTL
// contract at chain level: traffic arriving within the TTL refreshes a
// flow, so repeated sends plus a sub-TTL clock advance expire nothing.
func TestExpiryRefreshKeepsActiveFlows(t *testing.T) {
	var offset atomic.Int64
	cfg := testConfig()
	cfg.FlowTTL = time.Hour
	cfg.ExpiryClock = func() int64 { return expiryClockBase + offset.Load() }
	mbs := []Middlebox{&ttlFlowMB{flowMB{"a"}}, &countMB{"c1"}}
	h := newHarness(t, cfg, mbs, netsim.Config{Seed: 7})

	h.sendPackets(t, 50)
	drainSink(t, h, 30*time.Second)
	waitForQuiescence(t, h, 0)

	// Half a TTL passes, then the same flows send again (refresh)...
	offset.Add(int64(30 * time.Minute))
	h.sendPackets(t, 50)
	drainSink(t, h, 30*time.Second)
	waitForQuiescence(t, h, 0)

	// ...so another half-TTL later nothing is due.
	offset.Add(int64(45 * time.Minute))
	if deleted := h.chain.TriggerExpiry(); deleted != 0 {
		t.Fatalf("refreshed flows expired: %d deletions", deleted)
	}
	pre := storeDigest(h)
	if !strings.Contains(pre, "a-") {
		t.Fatalf("flow keys missing before their TTL:\n%s", pre)
	}

	// A full idle TTL finally ages them out, through TriggerExpiry or the
	// head's own resend tick, whichever runs first.
	offset.Add(int64(2 * time.Hour))
	h.chain.TriggerExpiry()
	waitForQuiescence(t, h, 0)
	if err := h.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(storeDigest(h), "\n") {
		if strings.HasPrefix(line, "a-") {
			t.Fatalf("idle flow survived expiry: %q", line)
		}
	}
}
