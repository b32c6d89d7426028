package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// journalMB writes one 16-byte value per packet into one of a few keys and
// journals what it wrote, in Process order. With one worker per replica
// Process order is commit order, so the journal is an independent record of
// every transaction: entry k's partition and per-partition sequence number
// follow from the entries before it, and any piggyback log can be recomputed
// from the journal alone.
type journalMB struct {
	salt uint64
	keys []string

	mu      sync.Mutex
	entries []journalEntry
}

type journalEntry struct {
	id  int // the packet's payload id
	key string
	val []byte
}

func newJournalMB(salt uint64, keys int) *journalMB {
	m := &journalMB{salt: salt}
	for i := 0; i < keys; i++ {
		m.keys = append(m.keys, fmt.Sprintf("j%d-%d", salt, i))
	}
	return m
}

func (m *journalMB) Name() string { return fmt.Sprintf("journal-%d", m.salt) }

func (m *journalMB) Process(p *wire.Packet, tx state.Txn) (Verdict, error) {
	var id int
	if _, err := fmt.Sscanf(string(p.Payload()), "pkt-%06d", &id); err != nil {
		return Drop, err
	}
	val := make([]byte, 16)
	binary.BigEndian.PutUint64(val, uint64(id))
	binary.BigEndian.PutUint64(val[8:], m.salt^uint64(id)*0x9e3779b97f4a7c15)
	key := m.keys[id%len(m.keys)]
	if err := tx.Put(key, val); err != nil {
		return Drop, err
	}
	m.mu.Lock()
	m.entries = append(m.entries, journalEntry{id: id, key: key, val: append([]byte(nil), val...)})
	m.mu.Unlock()
	return Forward, nil
}

// journalModel is a journal snapshot with every entry's partition and
// sequence number worked out.
type journalModel struct {
	entries []journalEntry
	part    []uint16
	seq     []uint64
	count   map[uint16]uint64 // writes per partition
	byID    map[int]int       // packet id → entry index
}

func (m *journalMB) model(partitionOf func(string) uint16) *journalModel {
	m.mu.Lock()
	entries := m.entries[:len(m.entries):len(m.entries)]
	m.mu.Unlock()
	jm := &journalModel{entries: entries, count: make(map[uint16]uint64), byID: make(map[int]int)}
	for i, e := range entries {
		p := partitionOf(e.key)
		jm.part = append(jm.part, p)
		jm.seq = append(jm.seq, jm.count[p])
		jm.count[p]++
		jm.byID[e.id] = i
	}
	return jm
}

// run recomputes the coalesced log covering [base, vec] per partition: the
// last-writer-wins merge, in first-write order, of every journaled write in
// those ranges. ok is false when a range names writes the journal lacks.
func (jm *journalModel) run(vec, base SparseVec) (upds []state.Update, ok bool) {
	want := 0
	for i := range vec {
		if vec[i].Part != base[i].Part || vec[i].Seq < base[i].Seq {
			return nil, false
		}
		want += int(vec[i].Seq-base[i].Seq) + 1
	}
	at := make(map[string]int)
	for k, e := range jm.entries {
		in := false
		for i := range vec {
			if vec[i].Part == jm.part[k] && base[i].Seq <= jm.seq[k] && jm.seq[k] <= vec[i].Seq {
				in = true
			}
		}
		if !in {
			continue
		}
		want--
		if j, seen := at[e.key]; seen {
			upds[j].Value = e.val
			continue
		}
		at[e.key] = len(upds)
		upds = append(upds, state.Update{Key: e.key, Value: e.val, Partition: jm.part[k]})
	}
	return upds, want == 0
}

func sortedVec(v SparseVec) bool {
	for i := 1; i < len(v); i++ {
		if v[i-1].Part >= v[i].Part {
			return false
		}
	}
	return true
}

// checkRun deep-compares one buffered log against the journal.
func checkRun(t *testing.T, where string, jm *journalModel, l Log) {
	t.Helper()
	if !l.Coalesced() || len(l.Vec) == 0 || len(l.Vec) != len(l.Base) || !sortedVec(l.Vec) {
		t.Fatalf("%s: malformed buffered log %+v", where, l)
	}
	want, ok := jm.run(l.Vec, l.Base)
	if !ok {
		t.Fatalf("%s: log vec %v base %v names writes the middlebox never made", where, l.Vec, l.Base)
	}
	if len(l.Updates) != len(want) {
		t.Fatalf("%s: log vec %v base %v has %d updates, journal gives %d", where, l.Vec, l.Base, len(l.Updates), len(want))
	}
	for i, u := range l.Updates {
		w := want[i]
		if u.Key != w.Key || !bytes.Equal(u.Value, w.Value) || u.Partition != w.Partition || u.Flags != 0 || u.Delta != 0 {
			t.Fatalf("%s: log vec %v update %d = %+v, journal gives %+v", where, l.Vec, i, u, w)
		}
	}
}

// TestBufferedLogLifetimes drives a two-replica, two-middlebox chain (node 0
// heads middlebox 0, follows the wrapped middlebox 1 and forwards; node 1
// heads middlebox 1, follows middlebox 0 and buffers) under loss and
// reordering, and at random moments — workers still running — deep-compares
// everything that outlives a burst with what the journals say it must hold:
// every log in both heads' retransmission buffers, every follower-buffered
// log, and every held packet's vectors. A transaction result that escaped
// its worker's scratch would be overwritten by the next transaction (and,
// under -race, read here while the worker writes it); a carved slice
// overrunning its neighbour would corrupt another log's entries.
func TestBufferedLogLifetimes(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1 // one queue worker: journal order is commit order per partition
	mbs := []*journalMB{newJournalMB(1, 12), newJournalMB(2, 5)}
	h := newHarness(t, cfg, []Middlebox{mbs[0], mbs[1]}, netsim.Config{Seed: 7})
	r0, r1 := h.chain.Replica(0), h.chain.Replica(1)
	lossy := netsim.LinkProfile{LossRate: 0.03, Latency: 20 * time.Microsecond, ReorderRate: 0.05}
	h.fabric.SetLink("gen", h.chain.IngressID(), netsim.LinkProfile{LossRate: 0.05})
	h.fabric.SetLink(r0.SimID(), r1.SimID(), lossy)
	h.fabric.SetLink(r1.SimID(), r0.SimID(), lossy)

	partitionOf := r0.Head().Store().PartitionOf
	check := func() (logs, held int) {
		// Snapshot what is buffered first and the journals second: a write
		// is journaled before it commits, so every buffered log is covered.
		type buffered struct {
			where string
			mb    int
			log   Log
		}
		var bufs []buffered
		for j := range mbs {
			for _, l := range h.chain.Replica(j).Head().Buffer().all() {
				bufs = append(bufs, buffered{fmt.Sprintf("head %d", j), j, l})
			}
			for _, l := range h.chain.Replica(1 - j).Follower(uint16(j)).Buffer().all() {
				bufs = append(bufs, buffered{fmt.Sprintf("follower of %d", j), j, l})
			}
		}
		type heldCopy struct {
			frame []byte
			logs  []Log
		}
		// Copied under each FIFO's lock, checked after it.
		var helds []heldCopy
		for i := range r1.buf.parts {
			p := &r1.buf.parts[i]
			p.mu.Lock()
			for _, hp := range p.fifo() {
				c := heldCopy{frame: append([]byte(nil), hp.frame...)}
				for _, l := range hp.logs {
					c.logs = append(c.logs, Log{MB: l.MB, Flags: l.Flags, Vec: l.Vec.Clone()})
				}
				helds = append(helds, c)
			}
			p.mu.Unlock()
		}

		models := []*journalModel{mbs[0].model(partitionOf), mbs[1].model(partitionOf)}
		for _, b := range bufs {
			checkRun(t, b.where, models[b.mb], b.log)
		}
		for _, hc := range helds {
			p, err := wire.Parse(hc.frame)
			if err != nil {
				t.Fatalf("held frame unparseable: %v", err)
			}
			id := payloadID(t, p)
			for _, l := range hc.logs {
				jm := models[l.MB]
				k, ok := jm.byID[id]
				if !ok || !sortedVec(l.Vec) {
					t.Fatalf("held packet %d: log %+v for a transaction the journal lacks", id, l)
				}
				own := VecEntry{Part: jm.part[k], Seq: jm.seq[k]}
				switch {
				case l.Elided():
					// The marker of the packet's own transaction, exactly.
					if !reflect.DeepEqual(l.Vec, SparseVec{own}) {
						t.Fatalf("held packet %d: marker vec %v, journal gives %v", id, l.Vec, SparseVec{own})
					}
				case l.Coalesced():
					// The run that closed on this packet: it covers the
					// packet's own write, names only journaled writes, and
					// equals the copy of that run still buffered, if any. A
					// second writer (a drain resuming parked frames) can cut
					// the worker's run short on a shared partition; that run
					// closes onto the packet ahead of the packet's own write,
					// which then rides a later run (its marker is here) or
					// one closed on this packet too.
					ownWrite := func(o Log) bool {
						if o.Elided() {
							return o.MB == l.MB && reflect.DeepEqual(o.Vec, SparseVec{own})
						}
						got := o.Vec.Get(own.Part)
						return o.Coalesced() && o.MB == l.MB && got != DontCare && got >= own.Seq
					}
					if !slices.ContainsFunc(hc.logs, ownWrite) {
						t.Fatalf("held packet %d: run vec %v does not cover its own write %v", id, l.Vec, own)
					}
					for _, e := range l.Vec {
						if e.Seq >= jm.count[e.Part] {
							t.Fatalf("held packet %d: run vec %v names writes the middlebox never made", id, l.Vec)
						}
					}
					for _, b := range bufs {
						if b.mb == int(l.MB) && b.log.Vec[0] == l.Vec[0] && !reflect.DeepEqual(b.log.Vec, l.Vec) {
							t.Fatalf("held packet %d: run vec %v, buffered run has %v", id, l.Vec, b.log.Vec)
						}
					}
				default:
					t.Fatalf("held packet %d: unexpected log %+v", id, l)
				}
			}
		}
		return len(bufs), len(helds)
	}

	// ingressDrained waits, with a bound, until every frame sent so far has
	// left the head's ingress queues. Sending never blocks the test
	// goroutine, so with one P it would otherwise send and sample before
	// the chain's workers ever ran.
	ingressDrained := func() {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
			queued := 0
			for q := 0; q < r0.sim.NumQueues(); q++ {
				queued += r0.sim.QueueLen(q)
			}
			if queued == 0 {
				return
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	const rounds, perRound = 300, 32
	checks, logsSeen, heldSeen := 0, 0, 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			id := round*perRound + i
			p, err := wire.BuildUDP(wire.UDPSpec{
				Src: wire.Addr4(10, 0, byte(id>>8), byte(id)), Dst: wire.Addr4(192, 0, 2, 1),
				SrcPort: uint16(1024 + id%1000), DstPort: 2000,
				Payload: []byte(fmt.Sprintf("pkt-%06d", id)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := h.gen.Send(h.chain.IngressID(), p.Buf); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(6) == 0 {
			ingressDrained()
			l, hd := check()
			checks, logsSeen, heldSeen = checks+1, logsSeen+l, heldSeen+hd
		}
		for drain(h.sink) > 0 {
		}
	}
	// Let the chain settle (lost packets never egress, so wait on the
	// buffer, not on a count), then look once more.
	ingressDrained()
	deadline := time.Now().Add(20 * time.Second)
	for r1.HeldPackets() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	check()
	if logsSeen == 0 || heldSeen == 0 {
		t.Fatalf("%d checks saw %d buffered logs and %d held packets: the sampling missed the data path", checks, logsSeen, heldSeen)
	}
	t.Logf("%d checks compared %d buffered logs and %d held packets", checks, logsSeen, heldSeen)
}

// TestTransactionResultsCallerOwned pins the other half of the lifetime
// rule: Head.Transaction logs and Store.Exec results (a pooled batch of
// one, which bench/replay.go and the expiry driver use) are the caller's.
// Retain 64, run 64 more, and the first 64 are untouched.
func TestTransactionResultsCallerOwned(t *testing.T) {
	st := state.New(8)
	h := NewHead(0, st)
	txn := func(i int) func(tx state.Txn) error {
		return func(tx state.Txn) error {
			if i%5 == 4 {
				_, _, err := tx.Get(fmt.Sprintf("k%d", i%7))
				return err
			}
			if err := tx.Put(fmt.Sprintf("k%d", i%7), []byte{byte(i), byte(i >> 8), 7}); err != nil {
				return err
			}
			return tx.Put(fmt.Sprintf("other%d", i%3), []byte{byte(i)})
		}
	}
	cloneLog := func(l Log) Log {
		l = l.Retain()
		for i := range l.Updates {
			l.Updates[i].Value = append([]byte(nil), l.Updates[i].Value...)
		}
		return l
	}
	var logs, logCopies []Log
	var results, resultCopies []state.Result
	step := func(i int, keep bool) {
		l, err := h.Transaction(txn(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Exec(txn(i))
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			logs, logCopies = append(logs, l), append(logCopies, cloneLog(l))
			results = append(results, res)
			c := state.Result{ReadOnly: res.ReadOnly, Touched: append([]uint16(nil), res.Touched...)}
			for _, u := range res.Updates {
				u.Value = append([]byte(nil), u.Value...)
				c.Updates = append(c.Updates, u)
			}
			resultCopies = append(resultCopies, c)
		}
	}
	for i := 0; i < 64; i++ {
		step(i, true)
	}
	for i := 64; i < 128; i++ {
		step(i, false)
	}
	for i := range logs {
		if !reflect.DeepEqual(logs[i], logCopies[i]) {
			t.Fatalf("log %d changed after later transactions:\n got %+v\nwant %+v", i, logs[i], logCopies[i])
		}
		got := results[i]
		got.Retries = 0
		if len(got.Updates) == 0 {
			got.Updates = nil
		}
		if !reflect.DeepEqual(got, resultCopies[i]) {
			t.Fatalf("result %d changed after later transactions:\n got %+v\nwant %+v", i, got, resultCopies[i])
		}
	}
}
