package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// ErrFenced rejects a recovery command carrying a stale controller term: a
// deposed orchestrator leader kept driving a recovery after a successor
// fenced the chain with a higher term (DESIGN.md §14). The command must not
// touch the ring; the caller should stop acting as leader.
var ErrFenced = errors.New("core: recovery command fenced by a newer controller term")

// Chain deploys and manages the FTC replicas of one service function chain
// on a fabric: one replica per middlebox plus extension replicas when the
// ring must be longer than the chain (§5.1). It is the package's main entry
// point; the orchestrator and the benchmarks both build chains through it.
type Chain struct {
	cfg     Config
	fabric  *netsim.Fabric
	ring    Ring
	name    string
	egress  netsim.NodeID
	mbs     []Middlebox
	spawnCt atomic.Uint32

	mu       sync.RWMutex // guards replicas and ringIDs against Adopt
	replicas []*Replica
	ringIDs  []netsim.NodeID

	// Controller fencing (DESIGN.md §14): the highest orchestrator term that
	// has claimed this chain. Recovery commands carrying a lower term
	// are rejected and counted, so a deposed leader cannot mutate the ring.
	ctrlTerm atomic.Uint64
	fencedCt metrics.Counter
	leader   netsim.NodeID // the fencing leader's node, under mu (suspect.go)

	// Spawned-but-not-adopted replacements, keyed by fabric node ID. A new
	// orchestrator leader resuming a predecessor's in-flight recovery looks
	// the half-built replacement up here instead of spawning a second one.
	spawnMu sync.Mutex
	spawned map[netsim.NodeID]*Replica

	// OnSpawn, if set, is invoked with every fabric node the chain creates
	// after construction (i.e. recovery replacements), before the replica
	// is initialized. Experiments use it to configure the new node's link
	// profiles (e.g. placing the replacement in the failed node's region).
	OnSpawn func(ringIdx int, id netsim.NodeID)
}

// NewChain creates (but does not start) a chain named name running the
// given middleboxes. Released packets are sent to egress (which must exist
// on the fabric, or be empty to count-and-discard).
func NewChain(cfg Config, fabric *netsim.Fabric, name string, mbs []Middlebox, egress netsim.NodeID) *Chain {
	cfg.NumMB = len(mbs)
	cfg = cfg.WithDefaults()
	ring := cfg.Ring()
	c := &Chain{
		cfg:     cfg,
		fabric:  fabric,
		ring:    ring,
		name:    name,
		egress:  egress,
		mbs:     mbs,
		spawned: make(map[netsim.NodeID]*Replica),
	}
	c.ringIDs = make([]netsim.NodeID, ring.M())
	for i := range c.ringIDs {
		c.ringIDs[i] = c.nodeID(i, 0)
	}
	for i := 0; i < ring.M(); i++ {
		var mb Middlebox
		if i < len(mbs) {
			mb = mbs[i]
		}
		c.replicas = append(c.replicas, c.buildReplica(i, c.ringIDs[i], mb))
	}
	return c
}

func (c *Chain) nodeID(idx int, spawn uint32) netsim.NodeID {
	if spawn == 0 {
		return netsim.NodeID(fmt.Sprintf("%s-r%d", c.name, idx))
	}
	return netsim.NodeID(fmt.Sprintf("%s-r%d.%d", c.name, idx, spawn))
}

func (c *Chain) buildReplica(idx int, id netsim.NodeID, mb Middlebox) *Replica {
	sim := c.fabric.AddNode(id, netsim.NodeConfig{
		Queues:   c.cfg.Workers,
		QueueCap: c.cfg.QueueCap,
		Selector: wire.RSSSelector,
	})
	return NewReplica(c.cfg, ReplicaSpec{
		Index:         idx,
		Sim:           sim,
		Fabric:        c.fabric,
		RingIDs:       c.ringIDs,
		Egress:        c.egress,
		MB:            mb,
		TTLPrefixes:   c.ttlPrefixes,
		DeltaPrefixes: c.deltaPrefixes,
	})
}

// ttlPrefixes resolves the FlowTTLer prefixes of middlebox mb, so every
// replica (head and followers alike) arms identical TTL configurations for
// the stores it hosts.
func (c *Chain) ttlPrefixes(mb int) []string {
	if mb < 0 || mb >= len(c.mbs) {
		return nil
	}
	if f, ok := c.mbs[mb].(FlowTTLer); ok {
		return f.FlowTTLPrefixes()
	}
	return nil
}

// deltaPrefixes resolves the DeltaPrefixer prefixes of middlebox mb; the
// hosting head's store classifies counter writes under them as deltas.
func (c *Chain) deltaPrefixes(mb int) []string {
	if mb < 0 || mb >= len(c.mbs) {
		return nil
	}
	if d, ok := c.mbs[mb].(DeltaPrefixer); ok {
		return d.DeltaPrefixes()
	}
	return nil
}

// TriggerExpiry synchronously drains every due flow entry at every head,
// looping until the TTL wheels report nothing further, and returns the
// total number of replicated deletions installed. Tests and the chaos
// harness call it after advancing a manual expiry clock (Config.ExpiryClock)
// to make expiry deterministic; production chains age flows on the
// burst/resend cadence without it.
func (c *Chain) TriggerExpiry() int {
	total := 0
	for _, r := range c.snapshot() {
		total += r.ExpireNow()
	}
	return total
}

// Start launches every replica.
func (c *Chain) Start() {
	for _, r := range c.snapshot() {
		r.Start()
	}
}

// Stop shuts down every replica.
func (c *Chain) Stop() {
	for _, r := range c.snapshot() {
		r.Stop()
	}
}

func (c *Chain) snapshot() []*Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Replica(nil), c.replicas...)
}

// Config returns the chain's effective configuration.
func (c *Chain) Config() Config { return c.cfg }

// Ring returns the chain's logical ring.
func (c *Chain) Ring() Ring { return c.ring }

// IngressID is the fabric node traffic enters the chain through (the
// forwarder's node).
func (c *Chain) IngressID() netsim.NodeID { return c.RingID(0) }

// RingID returns the current fabric ID of ring position i.
func (c *Chain) RingID(i int) netsim.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ringIDs[i]
}

// Replica returns the current replica at ring position i.
func (c *Chain) Replica(i int) *Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.replicas[i]
}

// Len returns the ring size.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.replicas)
}

// Crash fail-stops the replica at ring position i (the middlebox and its
// head fail together, §5.2: "the failure of a middlebox and its head
// replica is not isolated").
func (c *Chain) Crash(i int) {
	c.Replica(i).sim.Crash()
}

// Replace spawns a replacement replica at ring position i, recovers its
// state from the alive group members, reroutes the chain through it, and
// starts it (§5.2's three recovery steps), under the chain's current
// controller term. The crashed node must already be fail-stopped. Used
// directly by tests; the orchestrator drives the same phases individually
// so it can time, replicate and fence them.
func (c *Chain) Replace(ctx context.Context, i int) (*Replica, error) {
	term := c.ControllerTerm()
	nr, err := c.Spawn(i, term)
	if err != nil {
		return nil, err
	}
	if err = c.RecoverState(ctx, nr, term); err == nil {
		err = c.Adopt(nr, term)
	}
	if err != nil {
		c.Abort(nr)
		return nil, err
	}
	return nr, nil
}

// Spawn creates (but does not start or initialize) a replacement replica
// for ring position i on a fresh fabric node — recovery step 1 (§5.2,
// "spawning a new replica and a new middlebox"). A term below the chain's
// controller fence is rejected with ErrFenced before any fabric node is
// created.
func (c *Chain) Spawn(i int, term uint64) (*Replica, error) {
	if err := c.checkFence(term); err != nil {
		return nil, err
	}
	spawn := c.spawnCt.Add(1)
	var mb Middlebox
	if i < len(c.mbs) {
		mb = c.mbs[i]
	}
	id := c.nodeID(i, spawn)
	if c.OnSpawn != nil {
		// Runs after the fabric node is created, so the hook can configure
		// its link profiles before any recovery traffic flows.
		defer c.OnSpawn(i, id)
	}
	nr := c.buildReplica(i, id, mb)
	c.spawnMu.Lock()
	c.spawned[id] = nr
	c.spawnMu.Unlock()
	return nr, nil
}

// FindSpawned returns the spawned-but-not-adopted replacement with the
// given fabric node ID, or nil. An orchestrator leader taking over a
// predecessor's in-flight recovery uses it to resume — not restart — the
// recovery at the replicated phase it reached.
func (c *Chain) FindSpawned(id netsim.NodeID) *Replica {
	c.spawnMu.Lock()
	defer c.spawnMu.Unlock()
	return c.spawned[id]
}

func (c *Chain) dropSpawned(id netsim.NodeID) {
	c.spawnMu.Lock()
	delete(c.spawned, id)
	c.spawnMu.Unlock()
}

// RecoverState runs recovery step 2 on a spawned replica under controller
// term term: fetch each replication group's state from the appropriate
// alive member. The replica must not be started yet.
func (c *Chain) RecoverState(ctx context.Context, nr *Replica, term uint64) error {
	if err := c.checkFence(term); err != nil {
		return err
	}
	_, err := nr.Recover(ctx, c.RingID)
	return err
}

// Adopt runs recovery step 3 under controller term term: start the
// replacement, reroute the chain through it, and bump the chain generation
// to fence stale in-flight packets. The term is checked under the chain
// lock, atomically with the route swap, so a deposed leader that passed an
// earlier check cannot interleave its adopt with a successor's fence:
// either the adopt lands before the fence rises, or it is rejected whole
// with ErrFenced.
func (c *Chain) Adopt(nr *Replica, term uint64) error {
	i := nr.Index()
	c.mu.Lock()
	if term < c.ctrlTerm.Load() {
		c.mu.Unlock()
		c.fencedCt.Inc()
		return ErrFenced
	}
	nr.setLeader(c.leader)
	nr.Start()
	c.ringIDs[i] = nr.sim.ID()
	newGen := c.replicas[i].Gen() + 1
	c.replicas[i] = nr
	replicas := append([]*Replica(nil), c.replicas...)
	c.mu.Unlock()
	c.dropSpawned(nr.sim.ID())
	for _, r := range replicas {
		r.SetRoute(i, nr.sim.ID())
		r.SetGen(newGen)
	}
	return nil
}

// Abort discards a spawned replica whose recovery failed.
func (c *Chain) Abort(nr *Replica) {
	c.dropSpawned(nr.sim.ID())
	c.fabric.RemoveNode(nr.sim.ID())
}

// FenceController raises the chain's controller fencing term on behalf of
// the leader running on node leader. It reports whether term is now the
// (possibly pre-existing) highest: a false return means a newer leader
// already fenced the chain and the caller is deposed. Raising the fence is
// what makes a takeover exclusive — every subsequent fenced command from
// older terms fails with ErrFenced. The leader's node rides along: every
// replica, and every replacement adopted later, reports suspicions to it.
// Taken under the chain lock so a fence cannot interleave with an
// in-flight Adopt.
func (c *Chain) FenceController(term uint64, leader netsim.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		cur := c.ctrlTerm.Load()
		if term < cur {
			return false
		}
		if term == cur || c.ctrlTerm.CompareAndSwap(cur, term) {
			break
		}
	}
	c.leader = leader
	for _, r := range c.replicas {
		r.setLeader(leader)
	}
	return true
}

// FailStop fail-stops ring position i under controller term term if it
// still runs on node id: a replica its predecessor cannot reach has failed
// as far as the chain is concerned, and is replaced like a crashed one.
// Taken under the chain lock, so a concurrent Adopt cannot swap the
// position between the check and the crash.
func (c *Chain) FailStop(i int, id netsim.NodeID, term uint64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.checkFence(term); err != nil {
		return err
	}
	if c.ringIDs[i] == id {
		c.replicas[i].sim.Crash()
	}
	return nil
}

// ControllerTerm returns the highest controller term that fenced the chain.
func (c *Chain) ControllerTerm() uint64 { return c.ctrlTerm.Load() }

// FencedCommands counts recovery commands rejected for carrying a stale
// controller term — each one is a deposed leader's write that fencing
// stopped from reaching the ring.
func (c *Chain) FencedCommands() uint64 { return c.fencedCt.Value() }

func (c *Chain) checkFence(term uint64) error {
	if term < c.ctrlTerm.Load() {
		c.fencedCt.Inc()
		return ErrFenced
	}
	return nil
}
