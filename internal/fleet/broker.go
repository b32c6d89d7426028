package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/orch"
	"github.com/ftsfc/ftc/internal/tgen"
	"github.com/ftsfc/ftc/internal/wire"
)

// TraceFunc receives verbose broker events (one line per call) when
// installed via Options.Trace.
type TraceFunc func(format string, args ...any)

// Options tunes one fleet run without being part of the scenario.
type Options struct {
	// Trace, if set, receives a timestamped line per broker event.
	Trace TraceFunc
	// OrchHook, if set, is called once per launched chain with its
	// orchestrator, before monitoring starts. Fault-injection
	// tests hook it to attack the control plane mid-run (e.g. kill the
	// leader at a recovery phase) and prove the broker rides out the
	// failover.
	OrchHook func(chain string, o *orch.Orchestrator)
}

// expiryBase anchors every chain's manual expiry clock: positive (the
// expiry path requires it) and far from tick zero. Flow state never ages
// out mid-run; teardown jumps the chain's offset past the TTL to drain
// everything through the replicated-deletion path deterministically.
const expiryBase = int64(1e15)

// chainRec is the broker's record of one chain through its lifecycle.
// rec.mu serializes lifecycle transitions — launch, TTL expiry, and
// crash-recovery — so a server crash landing mid-teardown (or a TTL firing
// mid-recovery) resolves to a clean ordering instead of racing. Lock order
// is always rec.mu before Fleet.mu.
type chainRec struct {
	spec ChainSpec
	vip  wire.IPv4Addr
	idx  int // arrival index: VIP and address-space disambiguator

	mu    sync.Mutex
	state atomic.Int32 // State; readable without rec.mu for progress/reports

	reject  error // admission or launch failure when state == StateRejected
	servers Placement

	chain *core.Chain
	o     *orch.Orchestrator
	gen   *tgen.Generator
	sink  *tgen.Sink

	expOffset   atomic.Int64
	stopTraffic chan struct{}
	trafficDone chan struct{}

	// Results, written under rec.mu during teardown/recovery.
	sent             uint64
	delivered        uint64
	deletions        int
	recoveries       int
	recoveryFailures int
	downtime         time.Duration
	convErr          error
	quiesceErr       error
	latencyP99       time.Duration
	latencyCount     uint64
}

func (r *chainRec) getState() State  { return State(r.state.Load()) }
func (r *chainRec) setState(s State) { r.state.Store(int32(s)) }

// Fleet is one scenario run in flight: the shared fabric, pool, steering
// node, and every chain record. Fleet.mu guards the pool and the record
// map; individual chain lifecycles serialize on their own rec.mu.
type Fleet struct {
	scn      Scenario
	trace    TraceFunc
	orchHook func(string, *orch.Orchestrator)
	start    time.Time

	fab   *netsim.Fabric
	steer *Steer

	mu   sync.Mutex
	pool *Pool
	recs map[string]*chainRec
	ord  []string // arrival order, for deterministic reports

	wg sync.WaitGroup // admitted-chain lifecycle goroutines
}

// Run replays one scenario end to end: expand the arrival sequence, admit
// and launch each chain as it arrives, play the crash timeline, tear each
// chain down when its TTL expires, and assemble the fleet report. It never
// fails a chain silently — rejections, SLA misses, downtime overruns, and
// convergence failures all land in the report; the error return is for
// malformed scenarios only.
func Run(scn Scenario, opt Options) (*Report, error) {
	scn = scn.WithDefaults()
	specs, err := scn.ExpandChains()
	if err != nil {
		return nil, err
	}

	start := time.Now()
	trace := func(format string, args ...any) {
		if opt.Trace != nil {
			opt.Trace("%8.1fms  %s",
				float64(time.Since(start).Microseconds())/1000, fmt.Sprintf(format, args...))
		}
	}

	fab := netsim.New(netsim.Config{
		Seed: scn.Seed,
		DefaultLink: netsim.LinkProfile{
			Latency:  time.Duration(scn.Links.LatencyUs * float64(time.Microsecond)),
			LossRate: scn.Links.LossRate,
		},
	})
	defer fab.Stop()

	f := &Fleet{
		scn:      scn,
		trace:    trace,
		orchHook: opt.OrchHook,
		start:    start,
		fab:      fab,
		steer:    newSteer(fab, "fleet-steer"),
		pool:     NewPool(scn.Pool.Servers, scn.Pool.CPUPerServer, scn.Pool.BandwidthMbps),
		recs:     make(map[string]*chainRec, len(specs)),
	}

	// Crash timeline, concurrent with arrivals.
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		crashes := append([]CrashConfig(nil), scn.Crashes...)
		sort.SliceStable(crashes, func(i, j int) bool { return crashes[i].AtMs < crashes[j].AtMs })
		for _, c := range crashes {
			if d := time.Until(start.Add(scn.scale(ms(c.AtMs)))); d > 0 {
				time.Sleep(d)
			}
			name := c.Server
			if name == "auto" || name == "" {
				name = f.mostSharedServer()
			}
			if name == "" {
				trace("crash at %.0fms: no up server hosts any chain; skipped", c.AtMs)
				continue
			}
			f.CrashServer(name)
		}
	}()

	// Arrival loop: admit (and launch) each chain at its scheduled offset.
	for i, spec := range specs {
		if d := time.Until(start.Add(scn.scale(spec.Arrival))); d > 0 {
			time.Sleep(d)
		}
		f.arrive(spec, i)
	}

	<-crashDone

	// Deadline: every scheduled lifetime has elapsed plus the scenario's
	// slack. A fleet that cannot finish by then is wedged, and the report
	// says so rather than Run hanging forever.
	var latest time.Duration
	for _, spec := range specs {
		if e := scn.scale(spec.Arrival + spec.TTL); e > latest {
			latest = e
		}
	}
	deadline := start.Add(latest + ms(scn.RunSlackMs))
	lifecycles := make(chan struct{})
	go func() { f.wg.Wait(); close(lifecycles) }()
	timedOut := false
	select {
	case <-lifecycles:
	case <-time.After(time.Until(deadline)):
		timedOut = true
		trace("RUN TIMED OUT: chains still non-terminal past the slack deadline")
	}

	rep := f.report(timedOut)
	f.steer.stop()
	trace("done: %s", rep.OneLine())
	return rep, nil
}

// arrive runs admission control for one chain and, on success, launches it
// and schedules its TTL teardown.
func (f *Fleet) arrive(spec ChainSpec, idx int) {
	rec := &chainRec{
		spec: spec,
		idx:  idx,
		vip:  wire.Addr4(198, 18, byte(idx>>8), byte(idx)),
	}
	rec.setState(StateArriving)
	rec.mu.Lock()
	defer rec.mu.Unlock()

	f.mu.Lock()
	placement, err := f.pool.Admit(spec)
	if err == nil {
		rec.servers = placement
		rec.setState(StateAdmitted)
	} else {
		rec.reject = err
		rec.setState(StateRejected)
	}
	f.recs[spec.Name] = rec
	f.ord = append(f.ord, spec.Name)
	f.mu.Unlock()

	if err != nil {
		f.trace("chain %s REJECTED: %v", spec.Name, err)
		return
	}
	f.trace("chain %s admitted: demand=%.0fMbps ring=%d placement=%v",
		spec.Name, spec.Demand(), spec.RingSize(), placement)

	if err := f.launch(rec); err != nil {
		// Launch failures (unknown middlebox type, generator misconfig) give
		// the capacity back and count as rejections, not wedged chains.
		f.mu.Lock()
		f.pool.Release(spec)
		f.mu.Unlock()
		rec.reject = err
		rec.setState(StateRejected)
		f.trace("chain %s REJECTED at launch: %v", spec.Name, err)
		return
	}

	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if d := time.Until(f.start.Add(f.scn.scale(spec.Arrival + spec.TTL))); d > 0 {
			time.Sleep(d)
		}
		f.expire(rec)
	}()
}

// launch builds the chain's replicas, orchestrator, sink, and generator,
// installs steering, and starts the traffic loop. Called with rec.mu held.
func (f *Fleet) launch(rec *chainRec) error {
	spec := rec.spec
	prefix := "flt-" + spec.Name

	mbs, err := BuildMiddleboxes(spec.Middleboxes, rec.idx)
	if err != nil {
		return err
	}

	rec.sink = tgen.NewSink(f.fab, netsim.NodeID(prefix+"-sink"))
	cfg := core.Config{
		F:              spec.F,
		Workers:        1,
		Partitions:     16,
		QueueCap:       4096,
		PropagateEvery: time.Millisecond,
		FlowTTL:        ms(f.scn.Traffic.FlowTTLMs),
		ExpiryClock:    func() int64 { return expiryBase + rec.expOffset.Load() },
	}
	rec.chain = core.NewChain(cfg, f.fab, prefix, mbs, rec.sink.ID())
	rec.chain.Start()

	// Conservative heartbeat detection, as in the chaos runner: the broker
	// drives recoveries itself right after each injected crash, so the
	// detector is redundancy that must not false-positive under load. The
	// orchestrator is a per-chain ensemble (scenario orch_members); with
	// replication on, the chain's control plane survives leader crashes
	// mid-recovery without the broker noticing anything but latency.
	rec.o = orch.New(orch.Config{
		HeartbeatEvery:   15 * time.Millisecond,
		HeartbeatTimeout: 200 * time.Millisecond,
		Misses:           4,
		RecoveryTimeout:  2 * time.Second,
		Members:          f.scn.orchMembers(),
		LeaseEvery:       15 * time.Millisecond,
		ElectionAfter:    250 * time.Millisecond,
	}, f.fab, netsim.NodeID(prefix+"-orch"), rec.chain)
	if f.orchHook != nil {
		f.orchHook(spec.Name, rec.o)
	}
	rec.o.Start()

	rec.gen, err = tgen.NewGenerator(f.fab, netsim.NodeID(prefix+"-gen"), f.steer.ID(), tgen.Spec{
		Flows:      spec.Users,
		PacketSize: f.scn.Traffic.PacketSize,
		SrcBase:    wire.Addr4(10, byte(100+rec.idx), 0, 1),
		Dst:        rec.vip,
	})
	if err != nil {
		rec.o.Stop()
		rec.chain.Stop()
		rec.sink.Stop()
		return err
	}
	rec.setState(StatePlaced)

	f.steer.install(rec.vip, rec)
	rec.stopTraffic = make(chan struct{})
	rec.trafficDone = make(chan struct{})
	rec.setState(StateActive)

	// The offered packet rate follows the admission-control demand, scaled
	// by the scenario's rate_scale so laptop-scale runs keep production
	// admission math.
	pps := spec.Demand() * 1e6 / float64(8*f.scn.Traffic.PacketSize) * f.scn.Traffic.RateScale
	go func() {
		defer close(rec.trafficDone)
		const slice = 20 * time.Millisecond
		for {
			select {
			case <-rec.stopTraffic:
				return
			default:
			}
			rec.sent += rec.gen.Offer(pps, slice)
		}
	}()
	f.trace("chain %s active: vip=%v users=%d rate=%.0fpps", spec.Name, rec.vip, spec.Users, pps)
	return nil
}

// expire tears one chain down at the end of its TTL: withdraw steering,
// stop traffic, drain every remaining flow entry through the replicated
// TTL-expiry path, audit convergence, release nodes and capacity. Holding
// rec.mu across the whole teardown serializes it against CrashServer — a
// crash landing mid-expiry waits and then finds the chain reclaimed.
func (f *Fleet) expire(rec *chainRec) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.getState() != StateActive {
		return
	}
	rec.setState(StateExpiring)
	f.trace("chain %s expiring (ttl=%v elapsed)", rec.spec.Name, rec.spec.TTL)

	f.steer.remove(rec.vip)
	close(rec.stopTraffic)
	<-rec.trafficDone

	// Workload drained through the ring first, then the forced-expiry epoch:
	// jump the manual clock past the TTL so every surviving flow entry exits
	// through a replicated deletion, keeping store digests equal. The heads'
	// resend ticks may expire entries before TriggerExpiry does, so the
	// count is what left the head stores.
	rec.quiesceErr = rec.chain.WaitQuiescent(5 * time.Second)
	before := headEntries(rec.chain)
	rec.expOffset.Add(int64(10 * ms(f.scn.Traffic.FlowTTLMs)))
	rec.chain.TriggerExpiry()
	if err := rec.chain.WaitQuiescent(5 * time.Second); err != nil && rec.quiesceErr == nil {
		rec.quiesceErr = err
	}
	rec.deletions = before - headEntries(rec.chain)
	rec.convErr = rec.chain.CheckConvergence()

	rec.o.Stop()
	rec.chain.Stop()
	rec.sink.Stop()
	rec.delivered = rec.sink.Received()
	sum := rec.sink.Latency().Summarize()
	rec.latencyP99, rec.latencyCount = sum.P99, sum.Count
	f.fab.RemoveNode(netsim.NodeID("flt-" + rec.spec.Name + "-gen"))

	f.mu.Lock()
	f.pool.Release(rec.spec)
	f.mu.Unlock()
	rec.setState(StateReclaimed)
	f.trace("chain %s reclaimed: sent=%d delivered=%d expired=%d p99=%v conv=%v",
		rec.spec.Name, rec.sent, rec.delivered, rec.deletions,
		rec.latencyP99.Round(time.Microsecond), rec.convErr == nil)
}

// headEntries counts the entries in c's head stores.
func headEntries(c *core.Chain) int {
	n := 0
	for j := 0; j < c.Ring().N; j++ {
		n += c.Replica(j).Head().Store().Len()
	}
	return n
}

// mostSharedServer picks the up server hosting ring replicas of the most
// distinct chains (ties: most middlebox positions, then name) — the
// scenario's "auto" crash target, chosen to exercise cross-chain recovery.
func (f *Fleet) mostSharedServer() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best *Server
	for _, s := range f.pool.Servers() {
		if s.Down() || s.Chains() == 0 {
			continue
		}
		if best == nil || s.Chains() > best.Chains() ||
			(s.Chains() == best.Chains() && s.mbHosts > best.mbHosts) {
			best = s
		}
	}
	if best == nil {
		return ""
	}
	return best.Name
}

// CrashServer fail-stops one pool server: every ring replica it hosts —
// middlebox heads of one chain and extension replicas of others alike —
// dies at once, and the broker drives each affected chain's recovery,
// reassigning the lost positions to other servers under the per-chain
// anti-affinity rule. Chains already expiring or reclaimed are skipped
// (their teardown owns the record). Returns the number of ring positions
// recovered.
func (f *Fleet) CrashServer(name string) int {
	f.mu.Lock()
	specs := make(map[string]ChainSpec, len(f.recs))
	for n, rec := range f.recs {
		specs[n] = rec.spec
	}
	lost := f.pool.CrashServer(name, specs)
	f.mu.Unlock()
	if lost == nil {
		f.trace("crash %s: unknown or already down", name)
		return 0
	}
	f.trace("CRASH server %s: %d hosted replicas lost", name, len(lost))

	// Group by chain so each chain's recovery runs once under its rec.mu.
	byChain := make(map[string][]Assignment)
	order := []string{}
	for _, a := range lost {
		if _, seen := byChain[a.Chain]; !seen {
			order = append(order, a.Chain)
		}
		byChain[a.Chain] = append(byChain[a.Chain], a)
	}
	recovered := 0
	for _, chainName := range order {
		f.mu.Lock()
		rec := f.recs[chainName]
		f.mu.Unlock()
		if rec == nil {
			continue
		}
		recovered += f.recoverChain(rec, byChain[chainName])
	}
	// Sample the replica-only peak once, now that every lost position has
	// its new server: mid-response states (a replica reassigned before the
	// head that will share its server) are transients, not placements.
	f.mu.Lock()
	f.pool.noteReplicaOnly()
	f.mu.Unlock()
	return recovered
}

// recoverChain crashes and recovers the given ring positions of one chain.
// It serializes on rec.mu, so a TTL expiry firing concurrently either
// completes first (the chain is reclaimed; the dead replicas no longer
// exist) or waits until the lost positions are restored before tearing
// down — the broker never tears down a half-recovered ring.
func (f *Fleet) recoverChain(rec *chainRec, lost []Assignment) int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.getState() != StateActive {
		f.trace("chain %s: server crash after state=%v; nothing to recover", rec.spec.Name, rec.getState())
		return 0
	}
	recovered := 0
	for _, a := range lost {
		f.trace("chain %s: ring %d (mb=%v) died with its server", rec.spec.Name, a.RingIndex, a.IsMiddlebox)
		rec.chain.Crash(a.RingIndex)
		if !f.recoverPosition(rec, a.RingIndex) {
			rec.recoveryFailures++
			continue
		}
		recovered++
		f.mu.Lock()
		newSrv := f.pool.Reassign(rec.spec, a.RingIndex)
		f.mu.Unlock()
		rec.servers[a.RingIndex] = newSrv
		f.trace("chain %s: ring %d reassigned to %s", rec.spec.Name, a.RingIndex, newSrv)
	}
	return recovered
}

// recoverPosition restores one ring position, retrying through failed
// attempts and dead adoptions, and accounts the chain's downtime. Called
// with rec.mu held.
func (f *Fleet) recoverPosition(rec *chainRec, idx int) bool {
	alive := func() bool {
		return core.Ping(context.Background(), f.fab, rec.o.NodeID(), rec.chain.RingID(idx), 250*time.Millisecond)
	}
	for attempt := 1; attempt <= 4; attempt++ {
		rep := rec.o.Recover(idx)
		rec.downtime += rep.Total
		if rep.Err != nil {
			f.trace("chain %s: recover ring %d attempt %d failed: %v", rec.spec.Name, idx, attempt, rep.Err)
			continue
		}
		if alive() {
			rec.recoveries++
			f.trace("chain %s: recovered ring %d -> %s (total=%v fetch=%v)",
				rec.spec.Name, idx, rec.chain.RingID(idx),
				rep.Total.Round(time.Microsecond), rep.StateFetch.Round(time.Microsecond))
			return true
		}
		f.trace("chain %s: recover ring %d attempt %d adopted a dead replacement; retrying", rec.spec.Name, idx, attempt)
	}
	return false
}
