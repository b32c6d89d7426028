package core

import (
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// propagateLoop is the forwarder's idle timer (§5.1): when traffic pauses,
// pending piggyback state still flows through the chain. Its worker is a
// queue worker's, so the frames a carrier's logs unblock resume in its
// bracket.
//
// Every carrier that reaches the buffer is transferred back with the
// buffer's commit view, so an idle chain would carry the same commits
// around forever. A carrier with no logs whose commits equal the previous
// carrier's is therefore not sent, unless resendAfter has passed since that
// one or ring node 0 still awaits a transfer for frames it sent
// (forwarder.sentAt, so the forwarder-silence evidence is answered). The
// previous carrier took the same commits around; losses are repaired as
// before, by the forwarder's log resend and the heads' anti-entropy step.
func (r *Replica) propagateLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.PropagateEvery)
	defer t.Stop()
	w := r.newQueueWorker()
	var lastFP uint64 // the last carrier's commits (fingerprint)
	var lastAt time.Time
	for {
		select {
		case <-r.life.Done():
			return
		case <-t.C:
			if r.sim.Crashed() {
				// Fail-stopped but never Stop()ed (the chain replaced this
				// replica): exit rather than tick forever.
				return
			}
			// Drain the whole pending backlog in bounded batches so a
			// traffic burst's worth of wrapped logs replicates promptly.
			r.beginBurst(w)
			for {
				logs, commits := r.fwd.take(w.now, r.cfg.resendAfter(), nil, nil)
				if len(logs) == 0 && len(commits) == 0 {
					break
				}
				if len(logs) == 0 {
					fp := fingerprint(commits)
					if fp == lastFP && w.now.Sub(lastAt) < r.cfg.resendAfter() && r.fwd.sentAt.Load() == 0 {
						break // nothing new since the last carrier
					}
					lastFP, lastAt = fp, w.now
				}
				msg := &Message{Gen: r.gen.Load(), Flags: FlagPropagating, Logs: logs, Commits: commits}
				pkt := r.carrierFrom(msg.LenEstimate())
				r.processPacket(pkt, msg, w)
				w.rel = append(w.rel, pkt.Buf)
				if len(logs) < takeBatch {
					break
				}
			}
			r.flushBurst(w)
		}
	}
}

// fingerprint hashes commits independently of their order (take hands
// them out in map order), so two carriers' commits can be compared.
func fingerprint(commits []Commit) uint64 {
	var fp uint64
	for _, c := range commits {
		for _, e := range c.Vec {
			x := (uint64(c.MB)<<16|uint64(e.Part))*0x9e3779b97f4a7c15 ^ e.Seq
			x ^= x >> 31
			x *= 0xbf58476d1ce4e5b9
			fp += x ^ x>>29
		}
	}
	return fp
}

// maintain is the replica's maintenance tick, every RepairEvery. When the
// pending set holds frames, it repairs each gap a frame has waited on for
// a full period — the RPC goes out with no bracket held — and then drains
// in a bracket of its own (kick), which also lets frames past
// RepairDeadline go on and drops fenced ones.
//
// Every resendAfter it also runs the head's anti-entropy step. A head's
// logs normally ride data packets, so a frame lost between adjacent servers
// (a crashed successor not yet routed around) leaves followers with no
// signal that anything is missing once traffic pauses: repair only
// triggers when a later log arrives out of order. The step watches the
// commit vector for the head's own middlebox; if it stalls behind the
// dependency vector for a full resendAfter with no progress, the unpruned
// uncommitted logs are re-emitted on propagating carriers (followers
// suppress duplicates via their MAX vectors).
//
// Every tick, while an orchestrator leader is known, it also weighs the
// evidence of a failure on the ring and reports it (suspect).
func (r *Replica) maintain() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.RepairEvery)
	defer t.Stop()
	w := &worker{}
	sus := &suspector{}
	var lastSum uint64
	stale := false // one full interval of lag must elapse before resending
	next := time.Now().Add(r.cfg.resendAfter())
	for {
		select {
		case <-r.life.Done():
			return
		case now := <-t.C:
			if r.sim.Crashed() {
				return // replaced after a crash; never Stop()ed
			}
			if r.stats.Pending.Load() > 0 {
				for _, mb := range r.gaps(now) {
					r.repair(mb, r.followers[mb])
				}
				r.kick()
			} else if r.releaseDirty.Load() {
				r.kick() // a release another bracket held up
			}
			r.suspect(now, sus)
			if r.head == nil || now.Before(next) {
				continue
			}
			next = now.Add(r.cfg.resendAfter())
			if r.expiryOn {
				r.maybeExpire() // idle chains still age flows out
			}
			sum, _, lag := r.commitLag()
			if !lag || sum > lastSum {
				// Caught up, or commits still flowing: not wedged.
				lastSum = sum
				stale = false
				continue
			}
			if !stale {
				stale = true
				continue
			}
			stale = false
			// Push only the frontier: the oldest takeBatch missing logs.
			// If the stall is real loss, one batch fills the gap and commits
			// resume; if replication is merely slow (a large backlog under
			// contention), flooding every unpruned log would outrun the
			// drain and balloon the forwarder's pending set.
			logs := r.head.Buffer().Missing(r.commitSnapshot(r.head.MB()))
			if len(logs) > takeBatch {
				logs = logs[:takeBatch]
			}
			if len(logs) > 0 {
				r.beginBurst(w)
				r.emitPropagating(&Message{Gen: r.gen.Load(), Logs: logs}, w)
				r.flushBurst(w)
			}
		}
	}
}

// expiryNow reads the expiry clock (Config.ExpiryClock or wall time).
func (r *Replica) expiryNow() int64 {
	if r.cfg.ExpiryClock != nil {
		return r.cfg.ExpiryClock()
	}
	return time.Now().UnixNano()
}

// maybeExpire runs one throttled expiry scan at the head. Callers are the
// burst boundary and the resend tick; the CAS keeps concurrent workers from
// duplicating the scan (same pattern as commitStale).
func (r *Replica) maybeExpire() {
	now := r.expiryNow()
	last := r.lastExpiry.Load()
	if now-last < int64(expiryEvery) {
		return
	}
	if !r.lastExpiry.CompareAndSwap(last, now) {
		return
	}
	r.expireOnce(now)
}

// expireOnce turns up to expiryBatch due keys into one replicated deletion
// transaction and emits its log on a propagating carrier, so expiry flows
// through the normal log → commit → release machinery and follower stores
// converge to the head's. DeleteExpired re-validates each key under the
// transaction: a flow refreshed between collection and commit survives.
// The transaction takes the fetch gate itself, so it must run outside any
// beginBurst/flushBurst bracket (see handleBurst). Returns the number of
// deletions installed.
func (r *Replica) expireOnce(now int64) int {
	r.expMu.Lock()
	defer r.expMu.Unlock()
	st := r.head.Store()
	keys := st.CollectExpired(now, expiryBatch, r.expKeys[:0])
	r.expKeys = keys[:0]
	if len(keys) == 0 {
		return 0
	}
	deleted := 0
	log, err := r.head.Transaction(func(tx state.Txn) error {
		deleted = 0 // reset on wound-wait re-execution
		et := tx.(state.ExpiryTxn)
		for _, k := range keys {
			ok, err := et.DeleteExpired(k, now)
			if err != nil {
				return err
			}
			if ok {
				deleted++
			}
		}
		return nil
	})
	if err != nil || log.Noop() {
		return 0
	}
	r.beginBurst(r.expW)
	r.emitPropagating(&Message{Gen: r.gen.Load(), Logs: []Log{log}}, r.expW)
	r.flushBurst(r.expW)
	return deleted
}

// ExpireNow synchronously drains every due key at this replica's head,
// looping until the TTL wheels report nothing further. Tests and the chaos
// harness use it (via Chain.TriggerExpiry) to force deterministic expiry
// after advancing a manual expiry clock; production aging runs through
// maybeExpire on the burst/resend cadence instead. Returns deletions
// installed.
func (r *Replica) ExpireNow() int {
	if r.head == nil || !r.expiryOn {
		return 0
	}
	total := 0
	for {
		n := r.expireOnce(r.expiryNow())
		total += n
		if n == 0 {
			return total
		}
	}
}

// carrierTemplate returns the replica's prebuilt carrier frame (built once;
// the lazy init used to race when two workers emitted carriers at once).
func (r *Replica) carrierTemplate() []byte {
	r.carrierOnce.Do(func() { r.carrier = mustCarrier().Buf })
	return r.carrier
}

// carrierFrom builds a carrier packet from the replica's prebuilt template
// on a pooled frame sized for the trailer, avoiding a full header build +
// checksum + allocation per control frame. The caller owns the frame and
// recycles it via netsim.ReleaseFrame once it is copied into the fabric.
func (r *Replica) carrierFrom(trailerCap int) *wire.Packet {
	tmpl := r.carrierTemplate()
	buf := netsim.AcquireFrame(len(tmpl) + trailerCap + 8)[:len(tmpl)]
	copy(buf, tmpl)
	p, err := wire.Parse(buf)
	if err != nil {
		panic("core: carrier template unparseable: " + err.Error())
	}
	return p
}

func buildCarrierPacket() (*wire.Packet, error) {
	return wire.BuildUDP(wire.UDPSpec{
		SrcMAC:  wire.MAC{0x02, 0xf7, 0xc0, 0, 0, 1},
		DstMAC:  wire.MAC{0x02, 0xf7, 0xc0, 0, 0, 2},
		Src:     wire.Addr4(169, 254, 0, 1), // link-local: never routed outside
		Dst:     wire.Addr4(169, 254, 0, 2),
		SrcPort: 0xF7C0, DstPort: 0xF7C0,
		Headroom: 256,
	})
}

func mustCarrier() *wire.Packet {
	p, err := buildCarrierPacket()
	if err != nil {
		panic("core: carrier packet build failed: " + err.Error())
	}
	return p
}
