package core

import "time"

// Config holds the FTC protocol parameters shared by all replicas of a
// chain.
type Config struct {
	// F is the number of simultaneous replica failures tolerated. State is
	// replicated to F+1 replicas (§3.1).
	F int
	// NumMB is the number of middleboxes in the chain.
	NumMB int
	// Partitions is the state-partition count per middlebox store. It must
	// exceed the maximum worker count to keep lock contention low (§4.2).
	Partitions int
	// Workers is the number of ingress queues a chain gives each replica
	// node, and so the number of queue workers: one goroutine drains each
	// queue, which senders inside the fabric fill. Bursts injected from
	// outside it (a socket bridge's receive goroutines) run the pipeline on
	// the goroutine that injected them and are not bounded by Workers; a
	// bridged replica's parallelism is its bridge's socket count.
	Workers int
	// Burst is the vector-processing batch size: each worker drains up to
	// this many frames per ingress wakeup (an injected burst is run in
	// chunks of it) and amortizes route resolution,
	// state-lock acquisition, retransmission-buffer appends, and commit
	// dissemination across them (DPDK-style burst processing). Partial
	// bursts flush immediately, so bursting adds no latency floor; Burst=1
	// degenerates to per-packet processing. Burst 0 — the default — selects
	// the NAPI-style adaptive controller: each worker's burst starts at 1,
	// doubles toward netsim.DefaultMaxBurst while its queue stays
	// backlogged, and halves toward 1 when drains come up short (DESIGN.md
	// §9).
	Burst int
	// QueueCap is the per-ingress-queue capacity in frames.
	QueueCap int
	// PropagateEvery is the forwarder's idle timer: with no incoming
	// traffic, a propagating packet carries pending piggyback state through
	// the chain at this period (§5.1).
	PropagateEvery time.Duration
	// RepairEvery is the period of each replica's maintenance tick: a frame
	// parked in the pending set on a missing predecessor log for this long
	// has the log requested from the follower's group predecessor.
	RepairEvery time.Duration
	// RepairDeadline bounds how long a frame stays parked on a missing log;
	// a log not repaired within it is counted and passed on unapplied.
	RepairDeadline time.Duration
	// FlowTTL, when positive, ages idle flow entries out of middlebox
	// stores: keys matching a middlebox's FlowTTLer prefixes expire FlowTTL
	// after their last write or transactional read. Expiry runs at the head
	// on burst boundaries and resend ticks — never on followers — and each
	// expired key becomes an ordinary replicated deletion, so store digests
	// stay equal across the replication group. Zero (the default) disables
	// aging; existing workloads and baselines are unaffected.
	FlowTTL time.Duration
	// ExpiryClock overrides the expiry time source (nanoseconds; must be
	// positive). Nil means wall clock. Tests and the chaos harness inject a
	// manual clock to force or forbid expiry deterministically.
	ExpiryClock func() int64
}

// WithDefaults fills zero fields with production defaults.
func (c Config) WithDefaults() Config {
	if c.F <= 0 {
		c.F = 1
	}
	if c.Partitions <= 0 {
		c.Partitions = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Burst < 0 {
		c.Burst = 0 // adaptive
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.PropagateEvery <= 0 {
		c.PropagateEvery = time.Millisecond
	}
	if c.RepairEvery <= 0 {
		c.RepairEvery = 2 * time.Millisecond
	}
	if c.RepairDeadline <= 0 {
		c.RepairDeadline = 2 * time.Second
	}
	return c
}

// DefaultBurst is the classic fixed vector-processing batch size, matching
// the paper testbed's DPDK burst of 32 frames per poll. Since the adaptive
// controller became the default (Burst=0), it remains the fixed-burst
// reference point for baselines and equivalence tests.
const DefaultBurst = 32

// Fixed protocol parameters. Each was a Config field no caller ever set.
const (
	// commitRefresh bounds how stale a tail's disseminated commit vector may
	// get: commits ride every commitEvery'th packet, but at low rates a
	// time-based refresh keeps buffer-release latency bounded.
	commitRefresh = 200 * time.Microsecond
	// expiryEvery throttles how often a head scans its TTL wheels. Scans are
	// capped at expiryBatch replicated deletions, so a backlog of expired
	// flows drains over several bursts instead of stalling one.
	expiryEvery = time.Millisecond
	expiryBatch = 256
)

// resendAfter is how long the forwarder waits for a pending piggyback log
// to be committed before attaching it to another packet, and the head's
// anti-entropy period. Resend covers *lost* transfer frames, so it must sit
// well above the normal commit latency (ring traversal + dissemination
// period); resending live-but-uncommitted logs snowballs message sizes.
func (c Config) resendAfter() time.Duration {
	return max(4*c.PropagateEvery, 10*time.Millisecond)
}

// Ring derives the chain's logical ring from the configuration.
func (c Config) Ring() Ring { return Ring{N: c.NumMB, F: c.F} }
