// Package ftmb reimplements the paper's comparison baseline: FTMB
// (rollback-recovery for middleboxes, Sherry et al., SIGCOMM'15), with
// exactly the simplifications the FTC paper's own prototype makes (§7.1):
//
//   - a dedicated master server (M) runs the middlebox;
//   - a second server hosts the input logger (IL) and output logger (OL);
//   - packets traverse IL → M → OL;
//   - M tracks accesses to shared state with packet access logs (PALs) and
//     transmits them to OL in separate messages;
//   - PALs are assumed delivered on the first attempt and data packets are
//     released immediately after their PAL arrives; OL retains only the
//     last PAL;
//   - no snapshots are taken unless SnapshotEvery is set, in which case the
//     master stalls for SnapshotStall at that period (the paper's
//     FTMB+Snapshot simulation adds a 6 ms delay every 50 ms, §7.4).
//
// For a chain, every middlebox gets its own master and logger servers, so
// FTMB uses 2n servers where FTC uses n (§7.4).
package ftmb

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Config configures an FTMB chain.
type Config struct {
	Partitions int
	Workers    int
	QueueCap   int
	// Burst is the receive burst size of master and logger workers (default
	// core.DefaultBurst). Burst 1 degenerates to per-packet processing.
	Burst int
	// InputLogSize is the IL's ring of logged input packets.
	InputLogSize int
	// SnapshotEvery enables FTMB+Snapshot: the master pauses packet
	// processing for SnapshotStall at this period.
	SnapshotEvery time.Duration
	// SnapshotStall is the per-snapshot stall (paper: 6 ms).
	SnapshotStall time.Duration
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Burst <= 0 {
		c.Burst = core.DefaultBurst
	}
	if c.InputLogSize <= 0 {
		c.InputLogSize = 4096
	}
	if c.SnapshotEvery > 0 && c.SnapshotStall <= 0 {
		c.SnapshotStall = 6 * time.Millisecond
	}
	return c
}

// Frame kinds exchanged between FTMB elements, carried in the wire trailer.
const (
	kindData = 1
	kindPAL  = 2
)

// trailer layouts:
//
//	data: u8 kind | u64 pktID
//	pal:  u8 kind | u64 pktID | u16 nAccesses | n×(u16 partition, u64 seq)
func encodeDataTrailer(id uint64) []byte {
	b := make([]byte, 9)
	b[0] = kindData
	binary.BigEndian.PutUint64(b[1:9], id)
	return b
}

func encodePALTrailer(id uint64, accesses []palAccess) []byte {
	b := make([]byte, 0, 11+10*len(accesses))
	b = append(b, kindPAL)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint16(b, uint16(len(accesses)))
	for _, a := range accesses {
		b = binary.BigEndian.AppendUint16(b, a.partition)
		b = binary.BigEndian.AppendUint64(b, a.seq)
	}
	return b
}

// palAccess is one logged shared-state access: which state partition and
// the per-partition access sequence number, enough for deterministic replay
// ordering (FTMB's vector clocks over shared-variable accesses).
type palAccess struct {
	partition uint16
	seq       uint64
}

// Chain is an FTMB deployment of a middlebox chain.
type Chain struct {
	cfg    Config
	fabric *netsim.Fabric
	stages []*stage
}

// stage is one middlebox: its master and its IL/OL server.
type stage struct {
	cfg    Config
	mb     core.Middlebox
	store  *state.Store
	master *netsim.Node
	logger *netsim.Node
	next   netsim.NodeID // where OL releases packets to

	// master state
	pktID    atomic.Uint64
	accessCt []atomic.Uint64 // per-partition access counters for PALs
	stallMu  sync.RWMutex    // held exclusively during snapshot stalls

	// OL state
	olMu      sync.Mutex
	palSeen   map[uint64][]byte // pktID → last PAL (only the last is kept)
	dataWait  map[uint64][]byte // pktID → data frame awaiting its PAL
	lastPALID uint64

	// IL state: ring of logged input packets
	ilMu    sync.Mutex
	ilRing  [][]byte
	ilNext  int
	wg      sync.WaitGroup
	stopped chan struct{}

	released atomic.Uint64
	errs     atomic.Uint64
}

// NewChain deploys an FTMB chain: per middlebox, a master node and an IL/OL
// node; traffic enters the first IL and leaves the last OL to egress.
func NewChain(cfg Config, fabric *netsim.Fabric, name string, mbs []core.Middlebox, egress netsim.NodeID) *Chain {
	cfg = cfg.WithDefaults()
	c := &Chain{cfg: cfg, fabric: fabric}
	loggerIDs := make([]netsim.NodeID, len(mbs))
	for i := range mbs {
		loggerIDs[i] = netsim.NodeID(fmt.Sprintf("%s-ftmb-log%d", name, i))
	}
	for i, mb := range mbs {
		next := egress
		if i+1 < len(mbs) {
			next = loggerIDs[i+1]
		}
		st := &stage{
			cfg:      cfg,
			mb:       mb,
			store:    state.New(cfg.Partitions),
			next:     next,
			palSeen:  make(map[uint64][]byte),
			dataWait: make(map[uint64][]byte),
			ilRing:   make([][]byte, cfg.InputLogSize),
			stopped:  make(chan struct{}),
			accessCt: make([]atomic.Uint64, cfg.Partitions),
		}
		st.master = fabric.AddNode(netsim.NodeID(fmt.Sprintf("%s-ftmb-m%d", name, i)), netsim.NodeConfig{
			Queues:   cfg.Workers,
			QueueCap: cfg.QueueCap,
			Selector: wire.RSSSelector,
		})
		st.logger = fabric.AddNode(loggerIDs[i], netsim.NodeConfig{
			Queues:   cfg.Workers,
			QueueCap: cfg.QueueCap,
			Selector: wire.RSSSelector,
		})
		c.stages = append(c.stages, st)
	}
	return c
}

// IngressID is the first input logger's fabric node.
func (c *Chain) IngressID() netsim.NodeID { return c.stages[0].logger.ID() }

// Store returns middlebox i's master state store.
func (c *Chain) Store(i int) *state.Store { return c.stages[i].store }

// Released reports how many packets stage i's OL has released.
func (c *Chain) Released(i int) uint64 { return c.stages[i].released.Load() }

// Servers reports the number of fabric nodes the deployment uses (2 per
// middlebox — the resource-efficiency comparison of §7.4).
func (c *Chain) Servers() int { return 2 * len(c.stages) }

// Start launches all stages.
func (c *Chain) Start() {
	for _, st := range c.stages {
		st.start()
	}
}

// Stop terminates the chain.
func (c *Chain) Stop() {
	for _, st := range c.stages {
		close(st.stopped)
		st.master.Crash()
		st.logger.Crash()
	}
	for _, st := range c.stages {
		st.wg.Wait()
	}
}

func (st *stage) start() {
	for q := 0; q < st.master.NumQueues(); q++ {
		st.wg.Add(1)
		go func(q int) {
			defer st.wg.Done()
			in := make([]netsim.Inbound, st.cfg.Burst)
			batch := st.store.NewBatch()
			for {
				cnt := st.master.RecvBurst(q, in)
				if cnt == 0 {
					batch.Flush()
					return
				}
				for i := 0; i < cnt; i++ {
					st.masterHandle(in[i].Frame, batch)
					// masterHandle forwards copies; the inbound frame is dead here.
					netsim.ReleaseFrame(in[i].Frame)
					in[i] = netsim.Inbound{}
				}
				batch.Flush()
			}
		}(q)
	}
	for q := 0; q < st.logger.NumQueues(); q++ {
		st.wg.Add(1)
		go func(q int) {
			defer st.wg.Done()
			in := make([]netsim.Inbound, st.cfg.Burst)
			for {
				cnt := st.logger.RecvBurst(q, in)
				if cnt == 0 {
					return
				}
				for i := 0; i < cnt; i++ {
					st.loggerHandle(in[i])
					in[i] = netsim.Inbound{}
				}
			}
		}(q)
	}
	if st.cfg.SnapshotEvery > 0 {
		st.wg.Add(1)
		go st.snapshotLoop()
	}
}

// snapshotLoop simulates periodic consistent snapshots: packet processing
// stalls chain-wide for SnapshotStall every SnapshotEvery (§7.4).
func (st *stage) snapshotLoop() {
	defer st.wg.Done()
	t := time.NewTicker(st.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-st.stopped:
			return
		case <-t.C:
			st.stallMu.Lock()
			time.Sleep(st.cfg.SnapshotStall)
			st.stallMu.Unlock()
		}
	}
}

// loggerHandle runs both logger roles: frames from upstream are IL input
// (log + forward to master); frames from the master are either PALs or
// processed data packets for the OL to correlate and release.
func (st *stage) loggerHandle(in netsim.Inbound) {
	if in.From == st.master.ID() {
		st.olHandle(in.Frame)
		return
	}
	st.ilHandle(in.Frame)
}

// ilHandle is the input logger: it logs the packet so the master can be
// replayed after a failure, then forwards it to the master. The forward is
// non-blocking: the IL and OL share a server, and a blocking send toward a
// stalled master while the master blocks toward the logger would deadlock
// the pair — overload drops at the input, as at a real NIC.
func (st *stage) ilHandle(frame []byte) {
	logged := make([]byte, len(frame))
	copy(logged, frame)
	st.ilMu.Lock()
	st.ilRing[st.ilNext] = logged
	st.ilNext = (st.ilNext + 1) % len(st.ilRing)
	st.ilMu.Unlock()
	_ = st.logger.Send(st.master.ID(), frame)
}

// masterHandle processes one packet on the master: run the middlebox,
// collect its PAL from the state accesses, send the PAL then the packet to
// the OL. Transactions run through the worker's state batch, which retains
// partition locks across a burst; the caller flushes it at burst boundaries.
func (st *stage) masterHandle(frame []byte, batch *state.Batch) {
	st.stallMu.RLock()
	defer st.stallMu.RUnlock()

	pkt, err := wire.Parse(frame)
	if err != nil {
		st.errs.Add(1)
		return
	}
	pkt.DropTrailer() // drop upstream framing; middlebox sees a clean packet

	var verdict core.Verdict
	res, err := batch.Exec(func(tx state.Txn) error {
		v, perr := st.mb.Process(pkt, tx)
		verdict = v
		return perr
	})
	if err != nil {
		st.errs.Add(1)
		return
	}
	if verdict == core.Drop {
		return
	}
	id := st.pktID.Add(1)

	// Build the PAL: FTMB logs *all* accesses to shared state, including
	// reads (§2.1, §7.3 "FTMB logs them to provide fault tolerance"), one
	// entry per touched variable with its access ordinal.
	accesses := make([]palAccess, 0, len(res.Touched))
	for _, p := range res.Touched {
		accesses = append(accesses, palAccess{partition: p, seq: st.accessCt[p].Add(1)})
	}

	// PAL travels in its own message (the separate-message cost the paper
	// calls out for sharing level 1).
	pal := mustCarrier()
	if err := pal.SetTrailer(encodePALTrailer(id, accesses)); err == nil {
		_ = st.master.SendBlocking(st.logger.ID(), pal.Buf)
	}
	if err := pkt.SetTrailer(encodeDataTrailer(id)); err != nil {
		st.errs.Add(1)
		return
	}
	_ = st.master.SendBlocking(st.logger.ID(), pkt.Buf)
}

// olHandle is the output logger: a data packet is released once its PAL has
// arrived; only the last PAL is retained (§7.1).
func (st *stage) olHandle(frame []byte) {
	pkt, err := wire.Parse(frame)
	if err != nil {
		st.errs.Add(1)
		return
	}
	body := pkt.StripTrailer()
	if len(body) < 9 {
		st.errs.Add(1)
		return
	}
	kind := body[0]
	id := binary.BigEndian.Uint64(body[1:9])
	switch kind {
	case kindPAL:
		st.olMu.Lock()
		if id > st.lastPALID {
			st.lastPALID = id
		}
		// "OL maintains only the last PAL."
		for k := range st.palSeen {
			delete(st.palSeen, k)
		}
		st.palSeen[id] = body
		// Release every data packet whose PAL (or a later one — PALs are
		// id-ordered) has now arrived.
		var ready [][]byte
		for did, data := range st.dataWait {
			if did <= st.lastPALID {
				ready = append(ready, data)
				delete(st.dataWait, did)
			}
		}
		st.olMu.Unlock()
		for _, data := range ready {
			st.releaseFrame(data)
		}
	case kindData:
		st.olMu.Lock()
		// Released when the PAL with this id (or any later PAL — PALs are
		// generated in order per worker) has arrived.
		ready := st.lastPALID >= id
		if !ready {
			buf := make([]byte, len(pkt.Buf))
			copy(buf, pkt.Buf)
			st.dataWait[id] = buf
		}
		st.olMu.Unlock()
		if ready {
			st.releaseFrame(pkt.Buf)
		}
	default:
		st.errs.Add(1)
	}
}

func (st *stage) releaseFrame(frame []byte) {
	st.released.Add(1)
	if st.next != "" {
		_ = st.logger.SendBlocking(st.next, frame)
	}
}

func mustCarrier() *wire.Packet {
	p, err := wire.BuildUDP(wire.UDPSpec{
		SrcMAC:  wire.MAC{0x02, 0xfb, 0, 0, 0, 1},
		DstMAC:  wire.MAC{0x02, 0xfb, 0, 0, 0, 2},
		Src:     wire.Addr4(169, 254, 1, 1),
		Dst:     wire.Addr4(169, 254, 1, 2),
		SrcPort: 0xFB00, DstPort: 0xFB00,
		Headroom: 128,
	})
	if err != nil {
		panic("ftmb: carrier build failed: " + err.Error())
	}
	return p
}
