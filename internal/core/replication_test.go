package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/state"
)

func headFollower(parts int) (*Head, *Follower) {
	return NewHead(0, state.New(parts)), NewFollower(0, state.New(parts))
}

func TestHeadTransactionProducesLog(t *testing.T) {
	h, _ := headFollower(16)
	log, err := h.Transaction(func(tx state.Txn) error {
		return tx.Put("k", []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if log.Noop() {
		t.Fatal("write txn produced noop log")
	}
	if len(log.Updates) != 1 || log.Updates[0].Key != "k" {
		t.Fatalf("updates = %+v", log.Updates)
	}
	p := h.Store().PartitionOf("k")
	if log.Vec.Get(p) != 0 {
		t.Fatalf("first txn pre-seq = %d, want 0", log.Vec.Get(p))
	}
	if h.Vector()[p] != 1 {
		t.Fatalf("head vector = %d, want 1", h.Vector()[p])
	}
	if h.Buffer().Len() != 1 {
		t.Fatal("log not buffered for retransmission")
	}
}

func TestHeadReadOnlyNoop(t *testing.T) {
	h, _ := headFollower(16)
	h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte("v")) })
	log, err := h.Transaction(func(tx state.Txn) error {
		_, _, err := tx.Get("k")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !log.Noop() || len(log.Updates) != 0 {
		t.Fatalf("read-only log = %+v", log)
	}
	p := h.Store().PartitionOf("k")
	// Noop carries the observed (current) value and does not advance.
	if log.Vec.Get(p) != 1 {
		t.Fatalf("noop vec = %d, want 1", log.Vec.Get(p))
	}
	if h.Vector()[p] != 1 {
		t.Fatal("read-only txn advanced the head vector")
	}
	if h.Buffer().Len() != 1 {
		t.Fatal("noop log must not be buffered")
	}
}

func TestHeadSequencesPerPartitionMonotone(t *testing.T) {
	h, _ := headFollower(8)
	seen := map[uint16]uint64{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i%4)
		log, err := h.Transaction(func(tx state.Txn) error { return tx.Put(k, []byte{byte(i)}) })
		if err != nil {
			t.Fatal(err)
		}
		p := h.Store().PartitionOf(k)
		got := log.Vec.Get(p)
		if want, ok := seen[p]; ok && got != want {
			t.Fatalf("partition %d: pre-seq %d, want %d", p, got, want)
		}
		seen[p] = got + 1
	}
}

func TestFollowerAppliesInOrder(t *testing.T) {
	h, f := headFollower(16)
	var logs []Log
	for i := 0; i < 10; i++ {
		log, _ := h.Transaction(func(tx state.Txn) error {
			return tx.Put("k", []byte{byte(i)})
		})
		logs = append(logs, log)
	}
	for _, l := range logs {
		if out := f.Apply(l); out != Applied {
			t.Fatalf("apply = %v", out)
		}
	}
	v, ok := f.Store().Get("k")
	if !ok || v[0] != 9 {
		t.Fatalf("follower state = %v %v", v, ok)
	}
}

func TestFollowerBlocksOutOfOrder(t *testing.T) {
	h, f := headFollower(16)
	l1, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	l2, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{2}) })
	if out := f.Apply(l2); out != Blocked {
		t.Fatalf("out-of-order apply = %v", out)
	}
	if out := f.Apply(l1); out != Applied {
		t.Fatalf("in-order apply = %v", out)
	}
	if out := f.Apply(l2); out != Applied {
		t.Fatalf("retry apply = %v", out)
	}
	if out := f.Apply(l1); out != Duplicate {
		t.Fatalf("duplicate apply = %v", out)
	}
}

func TestFollowerNoopGating(t *testing.T) {
	h, f := headFollower(16)
	w, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	r, _ := h.Transaction(func(tx state.Txn) error { _, _, err := tx.Get("k"); return err })
	// The read observed the write; its noop log must block until the write
	// is applied — this is what makes release safe for read-only packets.
	if out := f.Apply(r); out != Blocked {
		t.Fatalf("noop apply before dependency = %v", out)
	}
	if out := f.Apply(w); out != Applied {
		t.Fatalf("write apply = %v", out)
	}
	if out := f.Apply(r); out != Applied {
		t.Fatalf("noop apply after dependency = %v", out)
	}
	// Noop does not advance MAX.
	p := h.Store().PartitionOf("k")
	if f.Max()[p] != 1 {
		t.Fatalf("MAX = %d after noop, want 1", f.Max()[p])
	}
}

func TestFollowerEmptyVecApplies(t *testing.T) {
	_, f := headFollower(8)
	if out := f.Apply(Log{MB: 0, Flags: LogNoop}); out != Applied {
		t.Fatalf("empty-vec log = %v", out)
	}
}

// applyOrRepair applies l, calling repair (if non-nil) between attempts
// while it is Blocked — a follower's own retry loop, for tests that feed
// logs to a Follower directly. It reports false if l is still Blocked after
// deadline.
func applyOrRepair(f *Follower, l Log, repair func(), deadline time.Duration) bool {
	for end := time.Now().Add(deadline); f.Apply(l) == Blocked; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(end) {
			return false
		}
		if repair != nil {
			repair()
		}
	}
	return true
}

func TestConcurrentDisjointApply(t *testing.T) {
	h, f := headFollower(64)
	// Generate logs across many keys, shuffle, and apply from 8 goroutines.
	var logs []Log
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key-%d", i%32)
		log, err := h.Transaction(func(tx state.Txn) error { return tx.Put(k, []byte{byte(i)}) })
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, log)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(logs), func(i, j int) { logs[i], logs[j] = logs[j], logs[i] })
	var wg sync.WaitGroup
	ch := make(chan Log, len(logs))
	repair := func() {
		// As in the real system, a stalled follower repairs from its group
		// predecessor's retransmission buffer (here, the head's).
		for _, l := range h.Buffer().Missing(f.Max()) {
			f.Apply(l)
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range ch {
				if !applyOrRepair(f, l, repair, 10*time.Second) {
					t.Error("apply timed out")
					return
				}
			}
		}()
	}
	for _, l := range logs {
		ch <- l
	}
	close(ch)
	wg.Wait()
	// Follower state must equal head state.
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%d", i)
		hv, _ := h.Store().Get(k)
		fv, ok := f.Store().Get(k)
		if !ok || string(hv) != string(fv) {
			t.Fatalf("key %s: head=%v follower=%v", k, hv, fv)
		}
	}
	// MAX must equal head vector.
	hv, fm := h.Vector(), f.Max()
	for p := range hv {
		if hv[p] != fm[p] {
			t.Fatalf("partition %d: head=%d follower=%d", p, hv[p], fm[p])
		}
	}
}

func TestLogBufferPruneAndMissing(t *testing.T) {
	h, f := headFollower(16)
	for i := 0; i < 5; i++ {
		l, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{byte(i)}) })
		f.Apply(l)
	}
	if h.Buffer().Len() != 5 || f.Buffer().Len() != 5 {
		t.Fatalf("buffer lens = %d %d", h.Buffer().Len(), f.Buffer().Len())
	}
	// Prune with a commit covering the first 3 writes (seq 0,1,2 → commit 3).
	commit := make([]uint64, 16)
	commit[h.Store().PartitionOf("k")] = 3
	h.Buffer().Prune(commit)
	if h.Buffer().Len() != 2 {
		t.Fatalf("after prune len = %d, want 2", h.Buffer().Len())
	}
	// A stale follower (MAX=1) should get the 2 remaining logs.
	max := make([]uint64, 16)
	max[h.Store().PartitionOf("k")] = 1
	miss := h.Buffer().Missing(max)
	if len(miss) != 2 {
		t.Fatalf("missing = %d, want 2", len(miss))
	}
}

func TestFollowerRestoreMax(t *testing.T) {
	h, f := headFollower(8)
	l1, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	l2, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{2}) })
	// Restore MAX as if recovered from a peer that had applied l1.
	max := make([]uint64, 8)
	max[h.Store().PartitionOf("k")] = 1
	f.RestoreMax(max)
	if out := f.Apply(l1); out != Duplicate {
		t.Fatalf("recovered duplicate = %v", out)
	}
	if out := f.Apply(l2); out != Applied {
		t.Fatalf("next log = %v", out)
	}
}

func TestHeadRestoreVector(t *testing.T) {
	h, _ := headFollower(8)
	v := []uint64{3, 0, 7}
	h.RestoreVector(v)
	got := h.Vector()
	if got[0] != 3 || got[2] != 7 {
		t.Fatalf("vector = %v", got)
	}
	// Next transaction continues from the restored sequence.
	log, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	p := h.Store().PartitionOf("k")
	want := v[p]
	if int(p) >= len(v) {
		want = 0
	}
	if log.Vec.Get(p) != want {
		t.Fatalf("pre-seq = %d, want %d", log.Vec.Get(p), want)
	}
}

func TestBufferRestoreAll(t *testing.T) {
	h, _ := headFollower(8)
	l, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	snap := h.Buffer().all()
	if len(snap) != 1 {
		t.Fatal("snapshot empty")
	}
	b2 := newLogBuffer()
	b2.restore(snap)
	if b2.Len() != 1 {
		t.Fatal("restore failed")
	}
	_ = l
}

// Vertical scaling (§4.3): a head running T threads replicates correctly to
// a follower applying with a different number of threads.
func TestVerticalScalingDifferentThreadCounts(t *testing.T) {
	h := NewHead(0, state.New(64))
	f := NewFollower(0, state.New(64))
	const headThreads, txns = 8, 200
	logCh := make(chan Log, headThreads*txns)
	var hwg sync.WaitGroup
	for w := 0; w < headThreads; w++ {
		hwg.Add(1)
		go func(w int) {
			defer hwg.Done()
			for i := 0; i < txns; i++ {
				k := fmt.Sprintf("key-%d", (w*txns+i)%16)
				l, err := h.Transaction(func(tx state.Txn) error {
					v, _, err := tx.Get(k)
					if err != nil {
						return err
					}
					return tx.Put(k, append(v[:0:0], byte(i)))
				})
				if err != nil {
					t.Error(err)
					return
				}
				logCh <- l
			}
		}(w)
	}
	hwg.Wait()
	close(logCh)
	// Follower replays with 2 threads, repairing from the head's buffer
	// when channel ordering leaves a dependency stuck behind both workers.
	repair := func() {
		for _, l := range h.Buffer().Missing(f.Max()) {
			f.Apply(l)
		}
	}
	var fwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			for l := range logCh {
				if !applyOrRepair(f, l, repair, 10*time.Second) {
					t.Error("apply timed out")
					return
				}
			}
		}()
	}
	fwg.Wait()
	hv, fm := h.Vector(), f.Max()
	for p := range hv {
		if hv[p] != fm[p] {
			t.Fatalf("partition %d: head=%d follower=%d", p, hv[p], fm[p])
		}
	}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("key-%d", i)
		hv, _ := h.Store().Get(k)
		fv, _ := f.Store().Get(k)
		if string(hv) != string(fv) {
			t.Fatalf("state divergence on %s", k)
		}
	}
}

func BenchmarkHeadTransaction(b *testing.B) {
	h := NewHead(0, state.New(64))
	val := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Transaction(func(tx state.Txn) error { return tx.Put("flow", val) }); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			h.Buffer().Prune([]uint64{^uint64(0) / 2})
		}
	}
}

func BenchmarkFollowerApply(b *testing.B) {
	h := NewHead(0, state.New(64))
	f := NewFollower(0, state.New(64))
	logs := make([]Log, b.N)
	for i := range logs {
		logs[i], _ = h.Transaction(func(tx state.Txn) error { return tx.Put("flow", []byte{byte(i)}) })
		if i%1024 == 0 {
			h.Buffer().Prune([]uint64{^uint64(0) / 2})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := f.Apply(logs[i]); out != Applied {
			b.Fatalf("apply = %v", out)
		}
		if i%1024 == 0 {
			f.Buffer().Prune([]uint64{^uint64(0) / 2})
		}
	}
}

// partialRun builds a coalesced run ahead on partition 2 (sequence 1, its
// base) and in order on partition 1 (sequence 0), and the earlier
// partition-2 log it waits for; kp and kq are keys of partitions 1 and 2.
func partialRun(st state.Backend) (run, earlier Log, kp, kq string) {
	for i := 0; kp == "" || kq == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		switch st.PartitionOf(k) {
		case 1:
			kp = k
		case 2:
			kq = k
		}
	}
	run = Log{
		MB:    0,
		Flags: LogCoalesced,
		Vec:   NewSparseVec(VecEntry{Part: 1, Seq: 0}, VecEntry{Part: 2, Seq: 1}),
		Base:  NewSparseVec(VecEntry{Part: 1, Seq: 0}, VecEntry{Part: 2, Seq: 1}),
		Updates: []state.Update{
			{Key: kp, Value: []byte("p0"), Partition: 1},
			{Key: kq, Value: []byte("q1"), Partition: 2},
		},
	}
	earlier = Log{MB: 0, Vec: NewSparseVec(VecEntry{Part: 2, Seq: 0}),
		Updates: []state.Update{{Key: kq, Value: []byte("q0"), Partition: 2}}}
	return run, earlier, kp, kq
}

// TestHeadRestoreInstallsPartialRun: a follower that received a coalesced
// run before an earlier log of one of its partitions installs the run's
// other partition at once and leaves this one behind (Partial). It keeps
// the run in its buffer for repair. A head recovered from that follower
// must install the behind partition itself: it resends the run from that
// buffer, and a head lacking a write its followers install diverges from
// them (chaos seed 53's divergent-stores and lost-committed-state).
func TestHeadRestoreInstallsPartialRun(t *testing.T) {
	st := state.New(8)
	run, earlier, kp, kq := partialRun(st)
	src := NewFollower(0, st)
	if got := src.Apply(run); got != Partial {
		t.Fatalf("run ahead of partition 2: %v, want Partial (partition 1 installs)", got)
	}
	if got := src.Apply(earlier); got != Applied {
		t.Fatalf("earlier log: %v", got)
	}
	if v, _ := st.Get(kq); string(v) != "q0" {
		t.Fatalf("source partition 2 holds %q, want the earlier q0 (run left behind)", v)
	}

	fs := &FetchState{MB: 0}
	fs.Vector, fs.Logs, fs.Snapshot = src.Fetch()
	h := NewHead(0, state.New(8))
	h.restoreFrom(fs)
	if v, _ := h.Store().Get(kq); string(v) != "q1" {
		t.Fatalf("restored head holds %q for the run's partition-2 write, want q1", v)
	}
	if v, _ := h.Store().Get(kp); string(v) != "p0" {
		t.Fatalf("restored head holds %q for the run's partition-1 write, want p0", v)
	}
	if vec := h.Vector(); vec[1] != 1 || vec[2] != 2 {
		t.Fatalf("restored head vector %v, want partition 1 at 1 and 2 at 2", vec)
	}
	if len(h.Buffer().all()) != 2 {
		t.Fatalf("restored head buffer holds %d logs, want the source's 2", len(h.Buffer().all()))
	}
}

// TestFollowerPartialRunBuffersOnce: a run ahead on one partition installs
// the other (Partial) and enters the buffer; once the earlier log is in, a
// retry of the run installs the rest and reports Applied, and the buffer
// still holds the run once.
func TestFollowerPartialRunBuffersOnce(t *testing.T) {
	st := state.New(8)
	run, earlier, kp, kq := partialRun(st)
	f := NewFollower(0, st)
	if got := f.Apply(run); got != Partial || len(f.Buffer().all()) != 1 {
		t.Fatalf("run ahead of partition 2: %v with %d buffered, want Partial and 1", got, len(f.Buffer().all()))
	}
	if got := f.Apply(run); got != Blocked {
		t.Fatalf("retry before the earlier log: %v, want Blocked", got)
	}
	if got := f.Apply(earlier); got != Applied {
		t.Fatalf("earlier log: %v", got)
	}
	if got := f.Apply(run); got != Applied {
		t.Fatalf("retry after the earlier log: %v, want Applied", got)
	}
	if v, _ := st.Get(kq); string(v) != "q1" {
		t.Fatalf("partition 2 holds %q, want the run's q1", v)
	}
	if v, _ := st.Get(kp); string(v) != "p0" {
		t.Fatalf("partition 1 holds %q, want the run's p0", v)
	}
	if max := f.Max(); max[1] != 1 || max[2] != 2 {
		t.Fatalf("MAX %v, want partition 1 at 1 and 2 at 2", max)
	}
	runs := 0
	for _, l := range f.Buffer().all() {
		if l.Coalesced() {
			runs++
		}
	}
	if runs != 1 {
		t.Fatalf("the run is buffered %d times, want 1", runs)
	}
	if got := f.Apply(run); got != Duplicate {
		t.Fatalf("a third apply: %v, want Duplicate", got)
	}
}
