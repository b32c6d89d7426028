package exp

import (
	"fmt"
	"runtime"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Ablations quantify the design choices of §3.2 in isolation, at the
// replication-primitive level (no network), so each choice's cost shows up
// directly.

// AblationPiggyback compares piggybacking state on packets against sending
// a separate replication message per packet (what per-middlebox frameworks
// do): the cost of building one combined frame vs a data frame plus a
// dedicated state frame.
func AblationPiggyback(iters int) *Table {
	pkt, _ := wire.BuildUDP(wire.UDPSpec{
		SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Src: wire.Addr4(10, 0, 0, 1), Dst: wire.Addr4(1, 2, 3, 4),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 214), Headroom: 512,
	})
	msg := &core.Message{Gen: 1, Logs: []core.Log{{
		MB:      0,
		Vec:     core.NewSparseVec(core.VecEntry{Part: 1, Seq: 4}),
		Updates: []state.Update{{Key: "flow", Value: make([]byte, 32), Partition: 1}},
	}}}
	scratch := make([]byte, 0, 256)

	start := time.Now()
	for i := 0; i < iters; i++ {
		scratch = msg.Encode(scratch[:0])
		pkt.SetTrailer(scratch)
	}
	piggyback := time.Since(start) / time.Duration(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		scratch = msg.Encode(scratch[:0])
		// A separate replication message needs its own frame: headers
		// built per message, then the payload copied in.
		sep, _ := wire.BuildUDP(wire.UDPSpec{
			SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
			Src: wire.Addr4(10, 0, 0, 1), Dst: wire.Addr4(1, 2, 3, 5),
			SrcPort: 3, DstPort: 4, Payload: scratch,
		})
		_ = sep
	}
	separate := time.Since(start) / time.Duration(iters)

	t := &Table{
		ID:     "Ablation A1",
		Title:  "State piggybacking vs separate replication messages",
		Header: []string{"Scheme", "ns/packet", "frames/packet"},
	}
	t.AddRow("piggyback on data packet (FTC)", fmt.Sprintf("%d", piggyback.Nanoseconds()), "1")
	t.AddRow("separate replication message", fmt.Sprintf("%d", separate.Nanoseconds()), "2")
	t.Notes = append(t.Notes, "separate messages also double per-hop frame rate, which is what caps FTMB at sharing level 1 (§7.3)")
	return t
}

// AblationDependencyVectors compares replication with data dependency
// vectors (concurrent apply of disjoint transactions) against a single
// total-order sequence number (serialized apply), the design §4.3 replaces.
func AblationDependencyVectors(iters, workers int) *Table {
	if workers <= 0 {
		workers = 8
	}
	// Generate logs over disjoint keys.
	h := core.NewHead(0, state.New(64))
	logs := make([]core.Log, iters)
	for i := range logs {
		k := fmt.Sprintf("key-%d", i%32)
		logs[i], _ = h.Transaction(func(tx state.Txn) error {
			return tx.Put(k, []byte{byte(i)})
		})
		if i%1024 == 0 {
			h.Buffer().Prune([]uint64{^uint64(0) >> 1})
		}
	}

	// Dependency vectors: concurrent apply.
	f := core.NewFollower(0, state.New(64))
	start := time.Now()
	applyConcurrent(f, logs, workers)
	depvec := time.Since(start)

	// Total order: one sequence number ⇒ single-threaded apply.
	f2 := core.NewFollower(0, state.New(64))
	start = time.Now()
	applyConcurrent(f2, logs, 1)
	total := time.Since(start)

	t := &Table{
		ID:     "Ablation A2",
		Title:  "Dependency vectors vs total-order sequence replication",
		Header: []string{"Scheme", "apply time", "per-log"},
	}
	t.AddRow(fmt.Sprintf("dependency vectors (%d appliers)", workers),
		depvec.Round(time.Microsecond).String(),
		(depvec / time.Duration(iters)).String())
	t.AddRow("total order (1 applier)",
		total.Round(time.Microsecond).String(),
		(total / time.Duration(iters)).String())
	t.Notes = append(t.Notes, "the partial order lets replicas apply non-dependent transactions concurrently (§4.3)")
	if runtime.GOMAXPROCS(0) == 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"GOMAXPROCS=1 on this host: concurrent appliers cannot run in parallel, so only the bookkeeping cost is visible (%d appliers requested)", workers))
	}
	return t
}

func applyConcurrent(f *core.Follower, logs []core.Log, workers int) {
	ch := make(chan core.Log, len(logs))
	for _, l := range logs {
		ch <- l
	}
	close(ch)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for l := range ch {
				for f.Apply(l) == core.Blocked {
					runtime.Gosched() // a sibling applier holds the dependency
				}
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// AblationServers compares server counts: FTC's in-chain replication vs
// dedicated replicas per middlebox (§3.2's resource-efficiency argument).
func AblationServers(chainLen, f int) *Table {
	r := core.Ring{N: chainLen, F: f}
	t := &Table{
		ID:     "Ablation A3",
		Title:  fmt.Sprintf("Servers to tolerate f=%d failures, chain of %d", f, chainLen),
		Header: []string{"Scheme", "Servers"},
	}
	t.AddRow("FTC (in-chain replication)", fmt.Sprintf("%d", r.M()))
	t.AddRow("dedicated replicas, HA cluster (n×(f+1))", fmt.Sprintf("%d", chainLen*(f+1)))
	t.AddRow("dedicated replicas, consensus (n×(2f+1))", fmt.Sprintf("%d", chainLen*(2*f+1)))
	t.Notes = append(t.Notes, "FTC needs no dedicated replica servers when the chain has ≥ f+1 middleboxes (§3.2)")
	return t
}

// AblationTransactions compares transactional packet processing against a
// single coarse global lock (the simple alternative to §4.2's design).
func AblationTransactions(iters, workers int) *Table {
	if workers <= 0 {
		workers = 8
	}
	// Fine-grained transactions over disjoint keys.
	s := state.New(64)
	start := time.Now()
	runParallel(workers, iters, func(w, i int) {
		k := fmt.Sprintf("key-%d-%d", w, i%8)
		s.Exec(func(tx state.Txn) error { return tx.Put(k, []byte{byte(i)}) })
	})
	fine := time.Since(start)

	// Coarse lock: all workers serialize on one partition.
	s2 := state.New(1)
	start = time.Now()
	runParallel(workers, iters, func(w, i int) {
		k := fmt.Sprintf("key-%d-%d", w, i%8)
		s2.Exec(func(tx state.Txn) error { return tx.Put(k, []byte{byte(i)}) })
	})
	coarse := time.Since(start)

	t := &Table{
		ID:     "Ablation A4",
		Title:  fmt.Sprintf("Partitioned transactions vs global lock (%d workers)", workers),
		Header: []string{"Scheme", "total", "per-txn"},
	}
	n := time.Duration(iters * workers)
	t.AddRow("per-partition 2PL (FTC)", fine.Round(time.Microsecond).String(), (fine / n).String())
	t.AddRow("single global lock", coarse.Round(time.Microsecond).String(), (coarse / n).String())
	if runtime.GOMAXPROCS(0) == 1 {
		t.Notes = append(t.Notes,
			"GOMAXPROCS=1 on this host: lock contention cannot manifest as parallel slowdown")
	}
	return t
}

func runParallel(workers, iters int, f func(w, i int)) {
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				f(w, i)
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
