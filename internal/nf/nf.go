// Package nf implements the paper's non-fault-tolerant baseline (§7.1, "NF"):
// the same middleboxes processing packets through the same transactional
// state layer, deployed one per server, with no replication, piggybacking,
// buffering, or recovery. It provides the performance ceiling the evaluation
// compares FTC and FTMB against.
package nf

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Config parallels core.Config for the baseline chain.
type Config struct {
	Partitions int
	Workers    int
	QueueCap   int
	// Burst is the receive/transmit burst size. Burst 1 degenerates to
	// per-packet processing; Burst 0 — the default — selects the adaptive
	// NAPI-style controller (netsim.BurstController), matching
	// core.Config.Burst so the baseline stays comparable.
	Burst int
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
	if c.Burst < 0 {
		c.Burst = 0 // adaptive
	}
	return c
}

// Node runs one middlebox with no fault tolerance.
type Node struct {
	mb    core.Middlebox
	store *state.Store
	sim   *netsim.Node
	next  netsim.NodeID
	burst int
	wg    sync.WaitGroup

	processed, dropped, errs atomic.Uint64
}

// Chain is a chain of NF nodes.
type Chain struct {
	cfg    Config
	fabric *netsim.Fabric
	nodes  []*Node
}

// NewChain deploys one NF node per middlebox; packets enter at the first
// node and leave to egress from the last.
func NewChain(cfg Config, fabric *netsim.Fabric, name string, mbs []core.Middlebox, egress netsim.NodeID) *Chain {
	cfg = cfg.WithDefaults()
	c := &Chain{cfg: cfg, fabric: fabric}
	ids := make([]netsim.NodeID, len(mbs))
	for i := range mbs {
		ids[i] = netsim.NodeID(fmt.Sprintf("%s-nf%d", name, i))
	}
	for i, mb := range mbs {
		sim := fabric.AddNode(ids[i], netsim.NodeConfig{
			Queues:   cfg.Workers,
			QueueCap: cfg.QueueCap,
			Selector: wire.RSSSelector,
		})
		next := egress
		if i+1 < len(mbs) {
			next = ids[i+1]
		}
		c.nodes = append(c.nodes, &Node{
			mb:    mb,
			store: state.New(cfg.Partitions),
			sim:   sim,
			next:  next,
			burst: cfg.Burst,
		})
	}
	return c
}

// IngressID is the fabric node traffic enters through.
func (c *Chain) IngressID() netsim.NodeID { return c.nodes[0].sim.ID() }

// Node returns the i'th NF node.
func (c *Chain) Node(i int) *Node { return c.nodes[i] }

// Store returns middlebox i's state store.
func (c *Chain) Store(i int) *state.Store { return c.nodes[i].store }

// Start launches all worker threads.
func (c *Chain) Start() {
	for _, n := range c.nodes {
		n.start()
	}
}

// Stop terminates the chain.
func (c *Chain) Stop() {
	for _, n := range c.nodes {
		n.sim.Crash()
	}
	for _, n := range c.nodes {
		n.wg.Wait()
	}
}

func (n *Node) start() {
	for q := 0; q < n.sim.NumQueues(); q++ {
		n.wg.Add(1)
		go func(q int) {
			defer n.wg.Done()
			ctl := netsim.NewBurstController(n.burst)
			in := make([]netsim.Inbound, netsim.MaxBurst(n.burst))
			out := make([][]byte, 0, netsim.MaxBurst(n.burst))
			batch := n.store.NewBatch()
			// Per-queue packet view, verdict and transaction body, reused
			// across frames: what an FTC worker gets, so the baseline pays
			// no allocation per packet that FTC does not.
			w := &queueWorker{}
			w.process = func(tx state.Txn) error {
				v, err := n.mb.Process(&w.pkt, tx)
				w.verdict = v
				return err
			}
			for {
				cnt := n.sim.RecvBurst(q, in[:ctl.Size()])
				if cnt == 0 {
					batch.Flush()
					return
				}
				ctl.Observe(cnt, n.sim.QueueLen(q))
				for i := 0; i < cnt; i++ {
					n.handle(in[i].Frame, batch, w, &out)
				}
				// One route resolution and one flow-control pass for the
				// whole burst; the fabric copies frames on send, so the
				// inbound frames can be recycled right after.
				if len(out) > 0 {
					_ = n.sim.SendBurstBlocking(n.next, out)
					for i := range out {
						out[i] = nil
					}
					out = out[:0]
				}
				batch.Flush()
				for i := 0; i < cnt; i++ {
					netsim.ReleaseFrame(in[i].Frame)
					in[i] = netsim.Inbound{}
				}
			}
		}(q)
	}
}

// queueWorker is one ingress queue's reusable per-packet state.
type queueWorker struct {
	pkt     wire.Packet
	verdict core.Verdict
	process func(tx state.Txn) error // runs the middlebox on pkt, sets verdict
}

func (n *Node) handle(frame []byte, batch *state.Batch, w *queueWorker, out *[][]byte) {
	if err := wire.ParseInto(&w.pkt, frame); err != nil {
		n.errs.Add(1)
		return
	}
	if _, err := batch.Exec(w.process); err != nil {
		n.errs.Add(1)
		return
	}
	if w.verdict == core.Drop {
		n.dropped.Add(1)
		return
	}
	n.processed.Add(1)
	if n.next != "" {
		*out = append(*out, w.pkt.Buf)
	}
}

// Counts reports processed/dropped/error totals.
func (n *Node) Counts() (processed, dropped, errs uint64) {
	return n.processed.Load(), n.dropped.Load(), n.errs.Load()
}
