package exp

import (
	"fmt"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/wire"
)

// Table 1's middleboxes and chains as factories.

// MonitorChain returns Ch-n: Monitor1 → … → Monitorn with the given
// sharing level.
func MonitorChain(n, sharing int) MBFactory {
	return func(workers int) []core.Middlebox {
		mbs := make([]core.Middlebox, n)
		for i := range mbs {
			mbs[i] = mbox.NewMonitor(sharing, workers)
		}
		return mbs
	}
}

// SingleMonitor returns a one-middlebox Monitor chain.
func SingleMonitor(sharing int) MBFactory { return MonitorChain(1, sharing) }

// SingleMazuNAT returns a one-middlebox MazuNAT chain.
func SingleMazuNAT() MBFactory {
	return func(int) []core.Middlebox {
		return []core.Middlebox{mbox.NewMazuNAT(
			wire.Addr4(203, 0, 113, 1), 10000, 40000,
			wire.Addr4(10, 0, 0, 0), 8,
		)}
	}
}

// SingleGen returns a one-middlebox Gen chain with the given state size.
func SingleGen(stateSize int) MBFactory {
	return func(int) []core.Middlebox {
		return []core.Middlebox{mbox.NewGen(stateSize, 16)}
	}
}

// FlowCounterChain returns a chain of n FlowCounter middleboxes with
// distinct key prefixes ("fc0-", "fc1-", …). Every packet leaves one
// per-flow counter in every store, so an external auditor can verify that
// each egressed packet's transactions survived — the chain the chaos
// campaign harness runs.
func FlowCounterChain(n int) MBFactory {
	return func(int) []core.Middlebox {
		mbs := make([]core.Middlebox, n)
		for i := range mbs {
			mbs[i] = mbox.NewFlowCounter(fmt.Sprintf("fc%d-", i))
		}
		return mbs
	}
}

// RecChain returns Ch-Rec: Firewall → Monitor → SimpleNAT (the recovery
// experiment's chain, §7.5).
func RecChain() MBFactory {
	return func(workers int) []core.Middlebox {
		return []core.Middlebox{
			mbox.NewFirewall(nil, true),
			mbox.NewMonitor(1, workers),
			mbox.NewSimpleNAT(wire.Addr4(203, 0, 113, 9), 20000, 40000),
		}
	}
}

// MazuNATPair returns the chain of two MazuNATs used by the Table 2
// breakdown ("MazuNAT running in a chain of length two").
func MazuNATPair() MBFactory {
	return func(int) []core.Middlebox {
		return []core.Middlebox{
			mbox.NewMazuNAT(wire.Addr4(203, 0, 113, 1), 10000, 40000, wire.Addr4(10, 0, 0, 0), 8),
			mbox.NewMazuNAT(wire.Addr4(203, 0, 113, 2), 10000, 40000, wire.Addr4(203, 0, 113, 0), 24),
		}
	}
}
