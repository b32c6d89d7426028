package mbox

import (
	"encoding/binary"
	"errors"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// LoadBalancer spreads flows over a backend pool with connection
// persistence: a connection is always directed to the same backend (§3.2's
// canonical shared-flow-table middlebox — the property that forces
// concurrent threads to coordinate, which packet transactions provide).
//
// New flows pick the least-loaded backend (a read-modify-write of shared
// per-backend counters); established flows only read their table entry.
type LoadBalancer struct {
	vip      wire.IPv4Addr
	backends []wire.IPv4Addr
}

// NewLoadBalancer balances traffic addressed to vip across backends.
func NewLoadBalancer(vip wire.IPv4Addr, backends []wire.IPv4Addr) (*LoadBalancer, error) {
	if len(backends) == 0 {
		return nil, errors.New("mbox: load balancer needs at least one backend")
	}
	if len(backends) > 0xffff {
		return nil, errors.New("mbox: too many backends")
	}
	return &LoadBalancer{vip: vip, backends: backends}, nil
}

// Name implements core.Middlebox.
func (lb *LoadBalancer) Name() string { return "LoadBalancer" }

func lbConnKey(t wire.FiveTuple) state.Key { return flowKey("lb:c:", t) }

func lbLoadKey(i int) string {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(i))
	return "lb:n:" + string(b[:])
}

// Process rewrites the destination of VIP traffic to the flow's backend,
// selecting the least-loaded backend for new flows.
func (lb *LoadBalancer) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	t := pkt.FiveTuple()
	if t.Dst != lb.vip || (t.Proto != wire.ProtoUDP && t.Proto != wire.ProtoTCP) {
		return core.Forward, nil
	}
	key := lbConnKey(t)
	v, ok, err := tx.GetKey(key)
	if err != nil {
		return core.Drop, err
	}
	var idx int
	if ok && len(v) == 2 {
		idx = int(binary.BigEndian.Uint16(v))
	} else {
		// Pick the least-loaded backend and charge the connection to it.
		best, bestLoad := 0, ^uint64(0)
		for i := range lb.backends {
			lv, _, err := tx.Get(lbLoadKey(i))
			if err != nil {
				return core.Drop, err
			}
			var n uint64
			if len(lv) == 8 {
				n = binary.BigEndian.Uint64(lv)
			}
			if n < bestLoad {
				best, bestLoad = i, n
			}
		}
		idx = best
		if _, err := counterAdd(tx, lbLoadKey(idx), 1); err != nil {
			return core.Drop, err
		}
		rec, err := tx.Write(key.String(), 2)
		if err != nil {
			return core.Drop, err
		}
		binary.BigEndian.PutUint16(rec, uint16(idx))
	}
	if idx >= len(lb.backends) {
		return core.Drop, errors.New("mbox: corrupt load-balancer record")
	}
	pkt.SetIPDst(lb.backends[idx])
	return core.Forward, nil
}
