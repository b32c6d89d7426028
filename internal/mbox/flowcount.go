package mbox

import (
	"encoding/binary"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// FlowCounter counts packets per five-tuple flow under a configurable key
// prefix. Unlike Monitor's shared worker-group counters, every flow gets
// its own state variable, so the final store contents identify exactly
// which packets committed — the audit middlebox of the chaos campaign
// harness: an external checker can recompute Key for any egressed packet
// and demand the counter exists (and is large enough) in every surviving
// replica.
type FlowCounter struct {
	prefix string
}

// NewFlowCounter creates a FlowCounter whose state keys start with prefix
// (distinct prefixes keep the stores of chained FlowCounters disjoint).
func NewFlowCounter(prefix string) *FlowCounter {
	return &FlowCounter{prefix: prefix}
}

// Name implements core.Middlebox.
func (c *FlowCounter) Name() string { return "FlowCounter(" + c.prefix + ")" }

// Prefix returns the key prefix all of this middlebox's flow keys share.
func (c *FlowCounter) Prefix() string { return c.prefix }

// FlowTTLPrefixes implements core.FlowTTLer: every FlowCounter key is
// per-flow, so the whole prefix ages out under Config.FlowTTL.
func (c *FlowCounter) FlowTTLPrefixes() []string { return []string{c.prefix} }

// DeltaPrefixes implements core.DeltaPrefixer: flow counters are 8-byte
// big-endian integers, so their updates ship as varint deltas.
func (c *FlowCounter) DeltaPrefixes() []string { return []string{c.prefix} }

// Key returns the state-store key this middlebox uses for a flow; external
// auditors use it to look up a packet's counter in replica snapshots.
func (c *FlowCounter) Key(t wire.FiveTuple) string { return flowKey(c.prefix, t).String() }

// Count decodes one of this middlebox's counter values as stored (0 for a
// missing or malformed value).
func (c *FlowCounter) Count(v []byte) uint64 {
	if len(v) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// Process increments the packet's flow counter.
func (c *FlowCounter) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	if _, err := counterAdd(tx, c.Key(pkt.FiveTuple()), 1); err != nil {
		return core.Drop, err
	}
	return core.Forward, nil
}
