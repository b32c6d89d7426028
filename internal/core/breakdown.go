package core

import (
	"time"

	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Breakdown is the per-packet processing cost of each FTC element,
// reproducing Table 2 of the paper ("performance breakdown for MazuNAT
// running in a chain of length two"). Costs are reported as wall time per
// packet; the paper reports CPU cycles, so callers typically also print
// time × clock frequency.
type Breakdown struct {
	PacketProcessing time.Duration // packet transaction incl. middlebox logic
	Locking          time.Duration // transaction/locking overhead alone
	CopyPiggyback    time.Duration // building+parsing the piggyback message
	Forwarder        time.Duration // forwarder bookkeeping per packet
	Buffer           time.Duration // buffer hold/commit-check per packet
}

// MeasureBreakdown times each FTC component in isolation, processing the
// given packet through the given middlebox. iters controls measurement
// length (≥ 1000 recommended).
func MeasureBreakdown(mb Middlebox, pktFrame []byte, iters int) (Breakdown, error) {
	if iters < 1 {
		iters = 1
	}
	var bd Breakdown

	// Packet transaction execution: the full head-side transaction, i.e.
	// middlebox processing plus locking plus log construction.
	head := NewHead(0, state.New(64))
	pkt, err := wire.Parse(append([]byte(nil), pktFrame...))
	if err != nil {
		return bd, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := head.Transaction(func(tx state.Txn) error {
			_, perr := mb.Process(pkt, tx)
			return perr
		}); err != nil {
			return bd, err
		}
		if i%1024 == 0 {
			head.Buffer().Prune([]uint64{^uint64(0) >> 1})
		}
	}
	bd.PacketProcessing = time.Since(start) / time.Duration(iters)

	// Locking: a transaction that acquires and releases one partition lock
	// without doing middlebox work.
	lockStore := state.New(64)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := lockStore.Exec(func(tx state.Txn) error {
			_, _, gerr := tx.Get("flow")
			return gerr
		}); err != nil {
			return bd, err
		}
	}
	bd.Locking = time.Since(start) / time.Duration(iters)

	// Copying piggybacked state: encode a typical per-flow update into the
	// packet trailer and decode it again (both directions of §6's in-place
	// piggyback handling).
	msg := &Message{Gen: 1, Logs: []Log{{
		MB:  0,
		Vec: NewSparseVec(VecEntry{Part: 3, Seq: 9}),
		Updates: []state.Update{{
			Key:       "flowkey-0123",
			Value:     make([]byte, 32), // a NAT record is ~32 B (§7.2)
			Partition: 3,
		}},
	}}}
	carrier := mustCarrier()
	scratch := make([]byte, 0, 256)
	start = time.Now()
	for i := 0; i < iters; i++ {
		scratch = msg.Encode(scratch[:0])
		if err := carrier.SetTrailer(scratch); err != nil {
			return bd, err
		}
		if _, err := DecodeMessage(carrier.Trailer()); err != nil {
			return bd, err
		}
	}
	bd.CopyPiggyback = time.Since(start) / time.Duration(iters)

	// Forwarder: ingest one buffer transfer and drain it onto a packet.
	fwd := newForwarder()
	transfer := &Message{
		Flags:   FlagBufferTransfer,
		Logs:    msg.Logs,
		Commits: []Commit{{MB: 0, Vec: NewSparseVec(VecEntry{Part: 3, Seq: 10})}},
	}
	now := time.Now()
	start = time.Now()
	for i := 0; i < iters; i++ {
		fwd.addTransfer(transfer)
		fwd.take(now, time.Millisecond, 0, nil, nil)
	}
	bd.Forwarder = time.Since(start) / time.Duration(iters)

	// Buffer: hold one packet, merge a commit, and run the release check.
	commits := map[uint16][]uint64{0: {0, 0, 0, 10}}
	held := msg.Logs
	start = time.Now()
	for i := 0; i < iters; i++ {
		if !releasableAgainst(held, commits) {
			return bd, ErrDecode // unreachable; keeps the check observable
		}
	}
	bd.Buffer = time.Since(start) / time.Duration(iters)

	return bd, nil
}
