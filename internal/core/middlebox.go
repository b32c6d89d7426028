package core

import (
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Verdict is a middlebox's decision about a packet.
type Verdict int

// Verdicts.
const (
	// Forward sends the packet to the next element of the chain.
	Forward Verdict = iota
	// Drop filters the packet. Its piggyback message still propagates: the
	// head emits a propagating packet carrying it (§5.1).
	Drop
)

// Middlebox is a network function whose state lives in the FTC state store.
// Process runs inside a packet transaction: all state reads and writes must
// go through tx, which provides serializable isolation; the runtime
// collects the resulting updates into the packet's piggyback log.
//
// Process may mutate the packet in place (NAT rewrites). It must not retain
// the packet or slices of it after returning. Process must be safe for
// concurrent invocation from multiple worker threads; per-packet state is
// isolated by the transaction.
//
// To port an existing middlebox to FTC, replace its direct state accesses
// with tx.Get/tx.Put/tx.Delete calls (§4.1: "its source code must be
// modified to call our API for state reads and writes").
type Middlebox interface {
	// Name identifies the middlebox in logs and experiment output.
	Name() string
	// Process handles one packet within transaction tx.
	Process(pkt *wire.Packet, tx state.Txn) (Verdict, error)
}

// FlowTTLer is the optional middlebox extension that opts its per-flow keys
// into TTL aging (Config.FlowTTL). FlowTTLPrefixes returns the key prefixes
// that name per-flow state; keys outside every prefix (shared counters,
// port allocators) never expire. Prefixes must be disjoint from the
// middlebox's non-flow key names. Returning nil keeps aging off for this
// middlebox even when the chain enables FlowTTL.
type FlowTTLer interface {
	FlowTTLPrefixes() []string
}

// DeltaPrefixer is the optional middlebox extension that opts keys into
// delta encoding under the piggyback diet: writes to keys matching a prefix
// whose old and new values are both 8-byte big-endian integers travel as a
// signed varint difference instead of the full value. Counters are the
// intended use; any key whose value is not such an integer at write time
// silently falls back to full-value form, so prefixes are safe to
// over-approximate.
type DeltaPrefixer interface {
	DeltaPrefixes() []string
}
