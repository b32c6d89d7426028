// Datacenter: the paper's motivating scenario — data center traffic passes
// through an intrusion detection system, a firewall, and a NAT before
// reaching the Internet (§1). The IDS is a custom middlebox written against
// the FTC state API, showing how to make your own network function fault
// tolerant: do every state access through the packet transaction.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	ftc "github.com/ftsfc/ftc"
)

// scanIDS is a tiny intrusion detection system: it counts distinct
// destination ports probed per source address and flags sources that exceed
// a threshold (a port-scan heuristic). Sources already flagged are dropped.
//
// All of its state lives in the transaction's store, which is exactly what
// FTC piggybacks and replicates — after a failover, flagged scanners stay
// flagged.
//
// It uses the allocation-free idiom of the bundled middleboxes: keys are a
// fixed prefix plus the packet's raw address bytes, held by value
// (ftc.MakeKey) and looked up with GetKey, and writes fill the buffer
// tx.Write returns. A packet of a (source, port) pair already seen only
// reads, and builds no key string.
type scanIDS struct {
	threshold uint32
}

func (s *scanIDS) Name() string { return "ScanIDS" }

func (s *scanIDS) Process(pkt *ftc.Packet, tx ftc.Txn) (ftc.Verdict, error) {
	t := pkt.FiveTuple()
	var pair [6]byte // source address, then destination port
	copy(pair[:4], t.Src[:])
	binary.BigEndian.PutUint16(pair[4:], t.DstPort)
	src := pair[:4]

	// Already flagged as a scanner? Drop.
	flagKey := ftc.MakeKey("ids:flag:", src)
	if v, ok, err := tx.GetKey(flagKey); err != nil {
		return ftc.Drop, err
	} else if ok && v[0] == 1 {
		return ftc.Drop, nil
	}

	// Record this (source, destination port) pair once.
	portKey := ftc.MakeKey("ids:port:", pair[:])
	if _, seen, err := tx.GetKey(portKey); err != nil || seen {
		return ftc.Forward, err
	}
	mark, err := tx.Write(portKey.String(), 1)
	if err != nil {
		return ftc.Drop, err
	}
	mark[0] = 1

	// Bump the distinct-port counter.
	countKey := ftc.MakeKey("ids:ports:", src)
	var n uint32
	if v, ok, err := tx.GetKey(countKey); err != nil {
		return ftc.Drop, err
	} else if ok {
		n = binary.BigEndian.Uint32(v)
	}
	n++
	count, err := tx.Write(countKey.String(), 4)
	if err != nil {
		return ftc.Drop, err
	}
	binary.BigEndian.PutUint32(count, n)
	if n < s.threshold {
		return ftc.Forward, nil
	}
	flag, err := tx.Write(flagKey.String(), 1)
	if err != nil {
		return ftc.Drop, err
	}
	flag[0] = 1
	return ftc.Drop, nil
}

func main() {
	ids := &scanIDS{threshold: 16}
	dep, err := ftc.Deploy([]ftc.Middlebox{
		ids,
		ftc.NewFirewall([]ftc.FirewallRule{
			{Proto: 17, DstPort: 53, Allow: false}, // block outbound DNS
			{Allow: true},
		}, false),
		ftc.NewMazuNAT(ftc.Addr4(203, 0, 113, 1), 10000, 40000, ftc.Addr4(10, 0, 0, 0), 8),
	}, ftc.Options{
		F:       1,
		Workers: 4,
		Traffic: ftc.TrafficSpec{Flows: 256, PacketSize: 256},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	sent := dep.Generator.Blast(400 * time.Millisecond)
	time.Sleep(300 * time.Millisecond)
	fmt.Printf("offered %d packets across 256 flows\n", sent)
	fmt.Printf("exited the chain: %d\n", dep.Sink.Received())

	idsState := dep.Chain.Replica(0).Head().Store().Len()
	fmt.Printf("IDS tracking state: %d keys\n", idsState)

	// Kill the IDS. Its scan-tracking state — which exists nowhere but in
	// the chain — survives via the in-chain replica.
	fmt.Println("\ncrashing the IDS...")
	dep.Chain.Crash(0)
	rep := dep.Orchestrator.Recover(0)
	if rep.Err != nil {
		log.Fatal(rep.Err)
	}
	fmt.Printf("IDS recovered in %v with %d keys intact\n",
		rep.Total.Round(time.Microsecond),
		dep.Chain.Replica(0).Head().Store().Len())

	stats := dep.Chain.Replica(1).Stats()
	fmt.Printf("firewall filtered %d packets so far\n", stats.Filtered.Load())
}
