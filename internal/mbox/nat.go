package mbox

import (
	"encoding/binary"
	"errors"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// ErrPortsExhausted is returned when a NAT runs out of external ports.
var ErrPortsExhausted = errors.New("mbox: NAT ports exhausted")

// natBinding is the value stored per flow: external address and port.
type natBinding struct {
	Addr wire.IPv4Addr
	Port uint16
}

// bindingLen is the encoded size of a natBinding (and of MazuNAT's reverse
// record, which has the same address-and-port layout).
const bindingLen = 6

// write buffers b as key's value in the transaction.
func (b natBinding) write(tx state.Txn, key string) error {
	out, err := tx.Write(key, bindingLen)
	if err != nil {
		return err
	}
	copy(out[0:4], b.Addr[:])
	binary.BigEndian.PutUint16(out[4:6], b.Port)
	return nil
}

func decodeBinding(v []byte) (natBinding, bool) {
	if len(v) != bindingLen {
		return natBinding{}, false
	}
	var b natBinding
	copy(b.Addr[:], v[0:4])
	b.Port = binary.BigEndian.Uint16(v[4:6])
	return b, true
}

// SimpleNAT provides basic source NAT: the first packet of a flow allocates
// an external port (a write to the shared allocator and the flow table);
// subsequent packets only read the flow's binding. This is Table 1's
// SimpleNAT: state reads per packet, state writes per flow.
type SimpleNAT struct {
	extIP     wire.IPv4Addr
	portBase  uint16
	portCount uint16
}

// NewSimpleNAT creates a NAT translating to extIP with ports allocated from
// [portBase, portBase+portCount).
func NewSimpleNAT(extIP wire.IPv4Addr, portBase, portCount uint16) *SimpleNAT {
	if portCount == 0 {
		portCount = 20000
	}
	return &SimpleNAT{extIP: extIP, portBase: portBase, portCount: portCount}
}

// Name implements core.Middlebox.
func (n *SimpleNAT) Name() string { return "SimpleNAT" }

// FlowTTLPrefixes implements core.FlowTTLer: per-flow bindings age out under
// Config.FlowTTL. The "nat:f:" prefix is disjoint from the shared
// "nat:nextport" allocator, which must never expire.
func (n *SimpleNAT) FlowTTLPrefixes() []string { return []string{"nat:f:"} }

// Process rewrites the packet's source to the flow's external binding,
// allocating one on the first packet. Connection persistence — every packet
// of a flow gets the same binding — is guaranteed by transaction isolation
// on the flow-table entry (§3.2).
func (n *SimpleNAT) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	t := pkt.FiveTuple()
	if t.Proto != wire.ProtoUDP && t.Proto != wire.ProtoTCP {
		return core.Forward, nil
	}
	key := flowKey("nat:f:", t)
	v, ok, err := tx.GetKey(key)
	if err != nil {
		return core.Drop, err
	}
	var b natBinding
	if ok {
		if b, ok = decodeBinding(v); !ok {
			return core.Drop, errors.New("mbox: corrupt NAT binding")
		}
	} else {
		next, err := counterAdd(tx, "nat:nextport", 1)
		if err != nil {
			return core.Drop, err
		}
		if next > uint64(n.portCount) {
			return core.Drop, ErrPortsExhausted
		}
		b = natBinding{Addr: n.extIP, Port: n.portBase + uint16(next-1)}
		if err := b.write(tx, key.String()); err != nil {
			return core.Drop, err
		}
	}
	pkt.SetIPSrc(b.Addr)
	pkt.SetSrcPort(b.Port)
	return core.Forward, nil
}

// MazuNAT reimplements the core behaviour of the Click mazu-nat.click
// configuration the paper evaluates: source NAT for outbound traffic with a
// reverse mapping so inbound traffic is translated back, plus per-flow
// packet counters. Established flows perform only reads on shared state
// (the paper's read-heavy workload); flow setup writes three keys.
type MazuNAT struct {
	extIP        wire.IPv4Addr
	portBase     uint16
	portCount    uint16
	internalNet  wire.IPv4Addr
	internalBits uint8
}

// NewMazuNAT creates a MazuNAT for the given internal network.
func NewMazuNAT(extIP wire.IPv4Addr, portBase, portCount uint16, internalNet wire.IPv4Addr, internalBits uint8) *MazuNAT {
	if portCount == 0 {
		portCount = 20000
	}
	return &MazuNAT{
		extIP: extIP, portBase: portBase, portCount: portCount,
		internalNet: internalNet, internalBits: internalBits,
	}
}

// Name implements core.Middlebox.
func (n *MazuNAT) Name() string { return "MazuNAT" }

// FlowTTLPrefixes implements core.FlowTTLer: forward bindings ("mnat:f:")
// and reverse port mappings ("mnat:r:") age out under Config.FlowTTL, while
// the shared "mnat:nextport" allocator and "mnat:flows" counter never do.
// Note the asymmetry inherited from the traffic pattern: outbound packets
// refresh only the forward binding, so a flow with outbound-only traffic
// can lose its reverse mapping one TTL after setup — matching the classic
// NAT behaviour of expiring idle inbound translations first.
func (n *MazuNAT) FlowTTLPrefixes() []string { return []string{"mnat:f:", "mnat:r:"} }

func (n *MazuNAT) isInternal(a wire.IPv4Addr) bool {
	return maskMatch(a, n.internalNet, n.internalBits)
}

// Process translates outbound packets (allocating a binding on flow setup)
// and reverse-translates inbound packets addressed to the external IP.
func (n *MazuNAT) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	t := pkt.FiveTuple()
	if t.Proto != wire.ProtoUDP && t.Proto != wire.ProtoTCP {
		return core.Forward, nil
	}
	if n.isInternal(t.Src) {
		return n.outbound(pkt, tx, t)
	}
	if t.Dst == n.extIP {
		return n.inbound(pkt, tx, t)
	}
	return core.Forward, nil
}

func (n *MazuNAT) outbound(pkt *wire.Packet, tx state.Txn, t wire.FiveTuple) (core.Verdict, error) {
	key := flowKey("mnat:f:", t)
	v, ok, err := tx.GetKey(key)
	if err != nil {
		return core.Drop, err
	}
	var b natBinding
	if ok {
		if b, ok = decodeBinding(v); !ok {
			return core.Drop, errors.New("mbox: corrupt MazuNAT binding")
		}
	} else {
		next, err := counterAdd(tx, "mnat:nextport", 1)
		if err != nil {
			return core.Drop, err
		}
		if next > uint64(n.portCount) {
			return core.Drop, ErrPortsExhausted
		}
		b = natBinding{Addr: n.extIP, Port: n.portBase + uint16(next-1)}
		if err := b.write(tx, key.String()); err != nil {
			return core.Drop, err
		}
		// Reverse mapping: external port → original source, so inbound
		// traffic can be translated back.
		orig := natBinding{Addr: t.Src, Port: t.SrcPort}
		if err := orig.write(tx, revKey(b.Port).String()); err != nil {
			return core.Drop, err
		}
		// Per-flow statistics, written at setup only (keeps the middlebox
		// read-heavy as in the paper's characterization).
		if _, err := counterAdd(tx, "mnat:flows", 1); err != nil {
			return core.Drop, err
		}
	}
	pkt.SetIPSrc(b.Addr)
	pkt.SetSrcPort(b.Port)
	return core.Forward, nil
}

func (n *MazuNAT) inbound(pkt *wire.Packet, tx state.Txn, t wire.FiveTuple) (core.Verdict, error) {
	v, _, err := tx.GetKey(revKey(t.DstPort))
	if err != nil {
		return core.Drop, err
	}
	orig, ok := decodeBinding(v)
	if !ok {
		return core.Drop, nil // no binding: drop unsolicited inbound traffic
	}
	pkt.SetIPDst(orig.Addr)
	pkt.SetDstPort(orig.Port)
	return core.Forward, nil
}

func revKey(port uint16) state.Key {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], port)
	return state.MakeKey("mnat:r:", b[:])
}
