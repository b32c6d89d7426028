package core

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
)

// Stats counts data-plane events at a replica. All fields are atomic.
type Stats struct {
	RxFrames      atomic.Uint64 // frames received
	TxFrames      atomic.Uint64 // frames forwarded to the next hop
	Egress        atomic.Uint64 // packets released out of the chain
	Held          atomic.Uint64 // packets ever held by the buffer
	Filtered      atomic.Uint64 // packets dropped by the middlebox verdict
	ParseErrors   atomic.Uint64
	StaleGen      atomic.Uint64 // packets fenced by a generation mismatch
	FencedHeld    atomic.Uint64 // held packets dropped by a generation bump
	Repairs       atomic.Uint64 // repair RPCs issued
	RepairedLogs  atomic.Uint64 // logs recovered via repair
	ApplyTimeouts atomic.Uint64 // logs passed on unapplied after RepairDeadline
	Duplicates    atomic.Uint64 // duplicate logs suppressed
	MBErrors      atomic.Uint64 // middlebox processing errors
	Propagating   atomic.Uint64 // propagating packets emitted
	FencedCmds    atomic.Uint64 // control commands rejected for a stale controller term

	// Goodput accounting on the inter-replica hops (bytes). AppBytesOut is
	// the application frame (headers + payload) before the trailer went on;
	// PiggybackBytesOut is everything added for replication — trailers,
	// carrier and transfer frames; WireBytesOut is their sum, the total
	// bytes put on chain links. Goodput is AppBytesOut/WireBytesOut.
	AppBytesOut       atomic.Uint64
	PiggybackBytesOut atomic.Uint64
	WireBytesOut      atomic.Uint64
	// SpilledLogs has no writer and always reads 0. It is kept only
	// because the benchmark harness (bench/) reads it.
	SpilledLogs atomic.Uint64

	Pending      atomic.Int64  // gauge: frames in the pending set (pending.go)
	PendingDrops atomic.Uint64 // frames dropped because the pending set was full
}

// SchedStats exposes the scheduling layer's observability (DESIGN.md §9):
// how many bursts the pipeline ran — every per-burst cost is amortized over
// Stats.RxFrames / Bursts frames — and the most recent burst size.
// Per-queue depths and selector clamps live on the netsim node
// (QueueDepths, Clamps).
type SchedStats struct {
	// Steals has no writer and always reads 0. It is kept only because the
	// benchmark harness (bench/) reads it.
	Steals metrics.Counter
	Bursts metrics.Counter // bursts handled, queue workers and ingest alike
	// Burst is the burst budget the adaptive controller last settled on (a
	// queue worker) or the size of the burst last injected (ingest).
	Burst metrics.Gauge
}

// Replica is one FTC chain node: it hosts a middlebox and the head of that
// middlebox's replication group, follows the F preceding middleboxes, acts
// as tail for one of them, and — at the ends of the chain — runs the
// forwarder and buffer elements (§5). Extension replicas (rings longer than
// the chain) host no middlebox and only replicate.
type Replica struct {
	cfg    Config
	ring   Ring
	idx    int
	sim    *netsim.Node
	fabric *netsim.Fabric
	egress netsim.NodeID

	mb        Middlebox
	head      *Head // nil on extension replicas
	followers map[uint16]*Follower

	gen atomic.Uint32

	// ctrlTerm is the controller fence floor: the highest orchestrator
	// leader term this replica has acknowledged. Routing/generation commands
	// below it are rejected (stats.FencedCmds).
	ctrlTerm atomic.Uint64
	// leader is the orchestrator leader's node, which suspicions go to
	// (suspect.go); nil until a leader fences the chain.
	leader atomic.Pointer[netsim.NodeID]

	routeMu sync.RWMutex
	ringIDs []netsim.NodeID

	commitMu   sync.Mutex
	commitSeen map[uint16][]uint64
	pruneTick  map[uint16]int

	fwd *forwarder    // non-nil on ring node 0
	buf *egressBuffer // non-nil on the last ring node

	tail int // middlebox whose group tail sits at this node, or -1 (precomputed)

	tailTick     atomic.Uint32 // commit dissemination throttle (§4.1 "periodically")
	lastCommit   atomic.Int64  // unix nanos of the last disseminated commit
	carrierOnce  sync.Once
	carrier      []byte      // prebuilt carrier frame template
	releaseDirty atomic.Bool // new commits (or committed holds) since the last release

	expiryOn   bool         // head store has TTL prefixes armed
	lastExpiry atomic.Int64 // expiry-clock nanos of the last wheel scan
	expMu      sync.Mutex   // serializes expiry scans; guards expKeys and expW
	expKeys    []string     // reusable CollectExpired buffer
	expW       *worker      // carries each scan's deletion log out of the node

	// Ingest (worker.go): the pipeline attached to the node for bursts
	// injected from outside the fabric. ingMu orders an ingest's admission
	// (started, not crashed, wg.Add) against Stop's crash-then-Wait, and
	// guards the free list of ingest workers.
	ingMu   sync.Mutex
	started bool
	ingFree []*worker

	pend pendingSet
	// brackets counts the brackets open on the node (Quiescent).
	brackets atomic.Int32

	stats    Stats
	sched    SchedStats
	stopOnce sync.Once
	life     context.Context // cancelled by Stop: ends the loops and their RPCs
	halt     context.CancelFunc
	wg       sync.WaitGroup
}

// ReplicaSpec carries the per-node wiring for NewReplica.
type ReplicaSpec struct {
	// Index is the node's ring position.
	Index int
	// Sim is the fabric node this replica runs on.
	Sim *netsim.Node
	// Fabric connects the chain.
	Fabric *netsim.Fabric
	// RingIDs are the fabric node IDs of all ring positions, in order.
	RingIDs []netsim.NodeID
	// Egress receives packets released from the chain (last node only).
	Egress netsim.NodeID
	// MB is the middlebox this node hosts; nil for extension replicas.
	MB Middlebox
	// TTLPrefixes maps a middlebox index to the key prefixes whose entries
	// age out under Config.FlowTTL (nil = no aging for that middlebox).
	// The chain derives it from each middlebox's FlowTTLer implementation;
	// a replica needs the mapping for every middlebox it follows, not just
	// the one it hosts, so follower stores arm the same TTLs as the head.
	TTLPrefixes func(mb int) []string
	// DeltaPrefixes maps a middlebox index to the key prefixes whose 8-byte
	// counter values travel as deltas under the piggyback diet (nil = no
	// delta encoding for that middlebox). The chain derives it from each
	// middlebox's DeltaPrefixer implementation; only the hosted middlebox's
	// head store classifies, so only its prefixes matter here.
	DeltaPrefixes func(mb int) []string
}

// NewReplica wires up (but does not start) a chain replica.
func NewReplica(cfg Config, spec ReplicaSpec) *Replica {
	cfg = cfg.WithDefaults()
	ring := cfg.Ring()
	r := &Replica{
		cfg:        cfg,
		ring:       ring,
		idx:        spec.Index,
		sim:        spec.Sim,
		fabric:     spec.Fabric,
		egress:     spec.Egress,
		mb:         spec.MB,
		followers:  make(map[uint16]*Follower),
		ringIDs:    append([]netsim.NodeID(nil), spec.RingIDs...),
		commitSeen: make(map[uint16][]uint64),
		pruneTick:  make(map[uint16]int),
	}
	r.life, r.halt = context.WithCancel(context.Background())
	r.tail = ring.TailOf(spec.Index)
	ttlFor := func(mb int) []string {
		if cfg.FlowTTL <= 0 || spec.TTLPrefixes == nil {
			return nil
		}
		return spec.TTLPrefixes(mb)
	}
	armTTL := func(st state.Backend, prefixes []string) {
		st.ConfigureExpiry(state.Expiry{
			TTL:      cfg.FlowTTL,
			Prefixes: prefixes,
			Clock:    cfg.ExpiryClock,
		})
	}
	if spec.MB != nil {
		r.head = NewHead(uint16(spec.Index), state.New(cfg.Partitions))
		if pre := ttlFor(spec.Index); len(pre) > 0 {
			armTTL(r.head.Store(), pre)
			r.expiryOn = true
			r.expW = &worker{}
		}
		if spec.DeltaPrefixes != nil {
			// Only the head classifies deltas (at its commit points);
			// followers merely resolve them on apply, which needs no config.
			if pre := spec.DeltaPrefixes(spec.Index); len(pre) > 0 {
				r.head.Store().ConfigureDelta(pre)
			}
		}
	}
	for _, j := range ring.FollowerOf(spec.Index) {
		f := NewFollower(uint16(j), state.New(cfg.Partitions))
		// Followers arm the same TTL prefixes so restored/recovered stores
		// keep aging, but they never expire keys themselves: deletions only
		// arrive as replicated updates from the head.
		if pre := ttlFor(j); len(pre) > 0 {
			armTTL(f.Store(), pre)
		}
		r.followers[uint16(j)] = f
	}
	for j := 0; j < cfg.NumMB; j++ {
		r.commitSeen[uint16(j)] = make([]uint64, cfg.Partitions)
	}
	if spec.Index == 0 {
		r.fwd = newForwarder()
	}
	if spec.Index == ring.M()-1 {
		r.buf = &egressBuffer{}
		for j := 0; j < cfg.NumMB; j++ {
			if ring.Wrapped(j) {
				r.buf.wrapped = append(r.buf.wrapped, uint16(j))
			}
		}
	}
	// Attached before the node can see traffic, so external ingress never has
	// two paths live: until Start an injected burst is dropped and counted
	// (a NIC whose port is not up yet), never parked in a queue the run
	// loops would drain beside later ingests.
	spec.Sim.AttachIngest(r.ingest)
	return r
}

// Index returns the replica's ring position.
func (r *Replica) Index() int { return r.idx }

// SimID returns the fabric node ID the replica runs on.
func (r *Replica) SimID() netsim.NodeID { return r.sim.ID() }

// Head returns the replica's head role (nil on extension replicas).
func (r *Replica) Head() *Head { return r.head }

// Follower returns the replica's follower role for middlebox j, or nil.
func (r *Replica) Follower(j uint16) *Follower { return r.followers[j] }

// Stats exposes the replica's counters.
func (r *Replica) Stats() *Stats { return &r.stats }

// Sched exposes the scheduling layer's counters.
func (r *Replica) Sched() *SchedStats { return &r.sched }

// Gen returns the replica's current chain generation.
func (r *Replica) Gen() uint32 { return r.gen.Load() }

// SetGen fences the replica onto a new chain generation. On the chain's
// last node the egress buffer is flushed at the boundary: packets whose
// logs the outgoing lineage already committed are released, and the rest —
// the paper's "packets in flight" that a new generation no longer admits
// (§4.1) — are dropped, because the new lineage resumes log sequencing
// from a fetched vector and its commits cannot vouch for their state.
func (r *Replica) SetGen(g uint32) {
	if r.buf == nil || r.gen.Load() == g {
		r.gen.Store(g)
		return
	}
	r.fence(g)
}

// Start launches one worker per ingress queue of the node, the
// maintenance tick and, on the first node, the propagating timer, registers
// the control-plane handlers and opens the node to injected bursts
// (ingest).
func (r *Replica) Start() {
	r.registerControl()
	r.ingMu.Lock()
	r.started = true
	r.ingMu.Unlock()
	for q := 0; q < r.sim.NumQueues(); q++ {
		r.wg.Add(1)
		go func(q int) {
			defer r.wg.Done()
			r.run(q)
		}(q)
	}
	if r.fwd != nil {
		r.wg.Add(1)
		go r.propagateLoop()
	}
	r.wg.Add(1)
	go r.maintain()
}

// Stop terminates the replica's goroutines and waits out the ingests in
// flight; once it returns nothing more is processed, and the frames parked
// in the pending set are released unprocessed. No frame waits inside a
// goroutine, so Stop takes about one burst. The fabric node is left
// crashed.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		r.halt()
		// Under ingMu: an ingest either counted itself into wg before the
		// crash or sees it and is refused, so no wg.Add races the Wait.
		r.ingMu.Lock()
		r.sim.Crash()
		r.ingMu.Unlock()
	})
	r.wg.Wait()
	r.dropPending()
}

// nextHop returns the fabric ID of the next ring node, or "" on the last.
func (r *Replica) nextHop() netsim.NodeID {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	if r.idx+1 < len(r.ringIDs) {
		return r.ringIDs[r.idx+1]
	}
	return ""
}

func (r *Replica) ringID(i int) netsim.NodeID {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return r.ringIDs[i]
}

// SetRoute updates the fabric ID of ring position i (recovery rerouting).
func (r *Replica) SetRoute(i int, id netsim.NodeID) {
	r.routeMu.Lock()
	if i >= 0 && i < len(r.ringIDs) {
		r.ringIDs[i] = id
	}
	r.routeMu.Unlock()
}

// HeldPackets reports how many packets the buffer currently holds (last
// node only; 0 elsewhere).
func (r *Replica) HeldPackets() int {
	n := 0
	if r.buf != nil {
		r.buf.eachFilled(func(_ int, p *flowPart[heldPacket]) { n += len(p.fifo()) })
	}
	return n
}

// idle reports whether the replica has nothing in hand: no frame queued at
// its node, parked in its pending set or inside a bracket.
func (r *Replica) idle() bool {
	for _, d := range r.sim.QueueDepths(nil) {
		if d > 0 {
			return false
		}
	}
	// Frames a queue worker has just received are in neither for the
	// moment before handleBurst opens its bracket.
	return r.stats.Pending.Load() == 0 && r.brackets.Load() == 0
}

// ForwarderPending reports the forwarder's pending log count (first node).
func (r *Replica) ForwarderPending() int {
	if r.fwd == nil {
		return 0
	}
	return r.fwd.pendingLen()
}
