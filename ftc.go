// Package ftc is the public API of the FTC library: fault-tolerant service
// function chaining as described in "Fault Tolerant Service Function
// Chaining" (SIGCOMM 2020).
//
// FTC replicates middlebox state along the chain itself: state updates
// produced by each packet transaction are piggybacked onto the packet and
// replicated at the servers hosting the next middleboxes, so a chain of
// n ≥ f+1 middleboxes tolerates f fail-stop failures with no dedicated
// replica servers.
//
// # Quick start
//
//	dep, err := ftc.Deploy([]ftc.Middlebox{
//		ftc.NewFirewall(nil, true),
//		ftc.NewMonitor(1, 4),
//		ftc.NewSimpleNAT(ftc.Addr4(203, 0, 113, 1), 10000, 20000),
//	}, ftc.Options{F: 1, Workers: 4})
//	if err != nil { ... }
//	defer dep.Close()
//
//	dep.Generator.Blast(time.Second)       // offer traffic
//	fmt.Println(dep.Sink.Received())       // count what exits the chain
//	dep.Chain.Crash(1)                     // fail-stop a middlebox
//	report := dep.Orchestrator.Recover(1)  // detect + repair
//
// The orchestrator is one logical controller replicated over
// Options.Heartbeat.Members fabric nodes (default 1); with 3 or more it
// survives its own leader crashing mid-recovery (DESIGN.md §14).
//
// Custom middleboxes implement the Middlebox interface; all state accesses
// go through the transactional store (Txn), which is what makes them
// recoverable. See the examples directory for complete programs.
package ftc

import (
	"fmt"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/orch"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/tgen"
	"github.com/ftsfc/ftc/internal/wire"
)

// Re-exported protocol types. Middlebox authors implement Middlebox and use
// Txn for all state access; Packet provides in-place header access.
type (
	// Middlebox is a network function running under FTC.
	Middlebox = core.Middlebox
	// Verdict is a middlebox's decision for a packet.
	Verdict = core.Verdict
	// Txn is a packet transaction over the middlebox state store.
	Txn = state.Txn
	// Key is a state key held by value, looked up with Txn.GetKey without
	// building a heap string.
	Key = state.Key
	// Packet is a parsed network packet.
	Packet = wire.Packet
	// FiveTuple identifies a transport flow.
	FiveTuple = wire.FiveTuple
	// IPv4Addr is an IPv4 address.
	IPv4Addr = wire.IPv4Addr
	// Chain manages the replicas of a deployed chain.
	Chain = core.Chain
	// ChainConfig tunes the FTC protocol.
	ChainConfig = core.Config
	// Replica is one chain node.
	Replica = core.Replica
	// Fabric is the simulated network substrate.
	Fabric = netsim.Fabric
	// FabricConfig tunes the fabric.
	FabricConfig = netsim.Config
	// LinkProfile describes link latency/loss/bandwidth behaviour.
	LinkProfile = netsim.LinkProfile
	// NodeID names a fabric node.
	NodeID = netsim.NodeID
	// Orchestrator monitors and repairs a chain.
	Orchestrator = orch.Orchestrator
	// OrchestratorConfig tunes failure detection.
	OrchestratorConfig = orch.Config
	// RecoveryReport is the timing breakdown of one recovery.
	RecoveryReport = orch.RecoveryReport
	// Generator produces synthetic workloads.
	Generator = tgen.Generator
	// Sink measures chain egress.
	Sink = tgen.Sink
	// TrafficSpec describes a synthetic workload.
	TrafficSpec = tgen.Spec
	// Histogram is a latency histogram.
	Histogram = metrics.Histogram
	// LatencySummary is a percentile snapshot.
	LatencySummary = metrics.Summary
	// FirewallRule is a rule of the bundled firewall middlebox.
	FirewallRule = mbox.Rule
)

// Middlebox verdicts.
const (
	Forward = core.Forward
	Drop    = core.Drop
)

// MakeKey returns the state key prefix+suffix, held by value (see Key).
func MakeKey(prefix string, suffix []byte) Key { return state.MakeKey(prefix, suffix) }

// Addr4 builds an IPv4 address from four octets.
func Addr4(a, b, c, d byte) IPv4Addr { return wire.Addr4(a, b, c, d) }

// NewFabric creates a network fabric.
func NewFabric(cfg FabricConfig) *Fabric { return netsim.New(cfg) }

// NewChain deploys (without starting) an FTC chain on a fabric.
func NewChain(cfg ChainConfig, fabric *Fabric, name string, mbs []Middlebox, egress NodeID) *Chain {
	return core.NewChain(cfg, fabric, name, mbs, egress)
}

// NewOrchestrator creates an orchestrator for a chain on cfg.Members fabric
// nodes named id-m0, id-m1, ...; address them through its NodeID method.
// Call Start before Recover.
func NewOrchestrator(cfg OrchestratorConfig, fabric *Fabric, id NodeID, chain *Chain) *Orchestrator {
	return orch.New(cfg, fabric, id, chain)
}

// NewGenerator creates a traffic generator on the fabric.
func NewGenerator(fabric *Fabric, id, target NodeID, spec TrafficSpec) (*Generator, error) {
	return tgen.NewGenerator(fabric, id, target, spec)
}

// NewSink creates a measuring sink on the fabric.
func NewSink(fabric *Fabric, id NodeID) *Sink { return tgen.NewSink(fabric, id) }

// Bundled middleboxes (Table 1 of the paper).

// NewMonitor returns a packet-counting middlebox with the given sharing
// level across the given worker count.
func NewMonitor(sharing, workers int) Middlebox { return mbox.NewMonitor(sharing, workers) }

// NewGen returns a write-heavy middlebox writing stateSize bytes per packet
// over the given number of keys.
func NewGen(stateSize, keys int) Middlebox { return mbox.NewGen(stateSize, keys) }

// NewSimpleNAT returns a basic source NAT.
func NewSimpleNAT(extIP IPv4Addr, portBase, portCount uint16) Middlebox {
	return mbox.NewSimpleNAT(extIP, portBase, portCount)
}

// NewMazuNAT returns the commercial-NAT-core middlebox.
func NewMazuNAT(extIP IPv4Addr, portBase, portCount uint16, internalNet IPv4Addr, internalBits uint8) Middlebox {
	return mbox.NewMazuNAT(extIP, portBase, portCount, internalNet, internalBits)
}

// NewFirewall returns a stateless rule-based firewall.
func NewFirewall(rules []FirewallRule, defaultAllow bool) Middlebox {
	return mbox.NewFirewall(rules, defaultAllow)
}

// Options configures Deploy.
type Options struct {
	// F is the number of failures to tolerate (default 1).
	F int
	// Workers is the number of packet threads per replica (default 1).
	Workers int
	// Partitions is the state partition count (default 64).
	Partitions int
	// Traffic describes the synthetic workload (defaults applied).
	Traffic TrafficSpec
	// Fabric tunes the network substrate (latency, loss, ...).
	Fabric FabricConfig
	// Heartbeat tunes failure detection and the orchestrator's member
	// count.
	Heartbeat OrchestratorConfig
	// ChainName prefixes fabric node names (default "ftc").
	ChainName string
}

// Deployment is a fully assembled FTC system: fabric, chain, orchestrator,
// and traffic harness.
type Deployment struct {
	Fabric       *Fabric
	Chain        *Chain
	Orchestrator *Orchestrator
	Generator    *Generator
	Sink         *Sink
}

// Deploy assembles and starts a complete FTC system running the given
// middleboxes, with a traffic generator aimed at the chain ingress and a
// measuring sink at its egress. The orchestrator's failure detector is
// started; call Close to tear everything down.
func Deploy(mbs []Middlebox, opt Options) (*Deployment, error) {
	if len(mbs) == 0 {
		return nil, fmt.Errorf("ftc: no middleboxes")
	}
	name := opt.ChainName
	if name == "" {
		name = "ftc"
	}
	fabric := netsim.New(opt.Fabric)
	sink := tgen.NewSink(fabric, NodeID(name+"-sink"))
	cfg := core.Config{
		F:          opt.F,
		Workers:    opt.Workers,
		Partitions: opt.Partitions,
	}
	chain := core.NewChain(cfg, fabric, name, mbs, sink.ID())
	chain.Start()
	gen, err := tgen.NewGenerator(fabric, NodeID(name+"-gen"), chain.IngressID(), opt.Traffic)
	if err != nil {
		fabric.Stop()
		return nil, err
	}
	o := orch.New(opt.Heartbeat, fabric, NodeID(name+"-orch"), chain)
	o.Start()
	return &Deployment{
		Fabric:       fabric,
		Chain:        chain,
		Orchestrator: o,
		Generator:    gen,
		Sink:         sink,
	}, nil
}

// WaitForEgress blocks until the sink has received at least n packets or
// the timeout expires, returning the number received.
func (d *Deployment) WaitForEgress(n uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for d.Sink.Received() < n && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	return d.Sink.Received()
}

// Close tears down the deployment.
func (d *Deployment) Close() {
	d.Orchestrator.Stop()
	d.Chain.Stop()
	d.Sink.Stop()
	d.Fabric.Stop()
}
