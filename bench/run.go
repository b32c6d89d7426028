package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ftsfc/ftc"
	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
)

const (
	// setups is how often a run sets up; setup_s is the median.
	setups = 3
	// slices is how many times the main phase alternates FTC and the NF
	// twin, so drift in machine speed reaches both sides of ftc_nf_ratio.
	slices = 10
	// crashRate is the open-loop rate of the crash phase, well below what a
	// three-middlebox chain sustains here, so all loss is outage.
	crashRate = 40_000
)

// runner carries one workload run from setup to checks.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	tr      *tracer // nil on untraced runs

	ftc, nf *sut
	fd, nd  *driver

	m         map[string]float64
	notes     []string // printed with the metrics: per-slice values
	problems  []string // failed output checks
	attempted uint64
	failed    uint64

	sockBufs [2]int // effective SO_RCVBUF, SO_SNDBUF of the bridges, for the stamp

	acc   coreTotals // counters of replicas crashed since setup
	base  coreTotals // counters at the end of setup
	basis uint64     // FTC packets delivered at the end of setup
}

func (r *runner) scaled(n int) uint64 {
	v := float64(n) * r.seconds / pinnedSeconds
	if v > float64(n) {
		v = float64(n)
	}
	if min := float64(r.w.flows); v < min {
		v = min // every flow is installed during setup
	}
	return uint64(v)
}

func (r *runner) phase(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

func (r *runner) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// setup builds the chain and its NF twin, installs every flow and pushes a
// fixed warm-up through both. It runs several times; the last build is
// the one measured.
func (r *runner) setup() error {
	spec := r.w.spec(r.seed)
	warm := r.scaled(r.w.warmup)
	var times []float64
	for i := 0; i < setups; i++ {
		r.stop()
		// Every setup starts from a collected heap, so that the peak
		// resident set is one setup's, not three setups' garbage.
		debug.FreeOSMemory()
		sp := r.tr.begin(spanSetup)
		t0 := time.Now()
		var err error
		if r.ftc, err = buildFTC(r.w, spec); err != nil {
			return err
		}
		if r.nf, err = buildNF(r.w, spec); err != nil {
			return err
		}
		r.fd = &driver{s: r.ftc, tr: r.tr}
		r.nd = &driver{s: r.nf, tr: r.tr}
		r.attempted += r.fd.closedCount(warm) + r.nd.closedCount(warm)
		r.failed += r.fd.failed + r.nd.failed
		r.fd.failed, r.nd.failed = 0, 0
		times = append(times, time.Since(t0).Seconds())
		r.tr.end(sp, int(2*warm))
	}
	r.m["setup_s"] = median(times)
	r.base = sumCore(r.ftc.liveReplicas())
	r.basis = r.ftc.sink.Received()
	return nil
}

func (r *runner) stop() {
	if r.ftc != nil {
		r.ftc.stop()
		r.ftc = nil
	}
	if r.nf != nil {
		r.nf.stop()
		r.nf = nil
	}
}

// usage is what a slice is charged: wall time, process CPU time, heap
// allocations, and the bytes the replicas put on chain links.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	core    coreTotals
}

// processCPU is the user and system time of all the process's threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *runner) usage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		core:    sumCore(r.ftc.liveReplicas()),
	}
}

// slice is one closed-loop stretch on one system.
type slice struct {
	offered, delivered uint64
	wall, cpu          time.Duration
	mallocs            uint64
	app, wire          uint64
	traced             bool
}

func (s slice) pps() float64 { return float64(s.delivered) / s.wall.Seconds() }

func (r *runner) slice(d *driver, dur time.Duration) slice {
	sp := r.tr.begin(spanSlice)
	a, recv := r.usage(), d.s.sink.Received()
	offered := d.closedFor(dur)
	b := r.usage()
	s := slice{
		offered:   offered,
		delivered: d.s.sink.Received() - recv,
		wall:      b.wall.Sub(a.wall),
		cpu:       b.cpu - a.cpu,
		mallocs:   b.mallocs - a.mallocs,
		app:       b.core[cAppBytes] - a.core[cAppBytes],
		wire:      b.core[cWireBytes] - a.core[cWireBytes],
		traced:    r.tr != nil && r.tr.on,
	}
	r.tr.end(sp, int(s.delivered))
	r.attempted += offered
	r.failed += d.failed
	d.failed = 0
	return s
}

// pingPongPhase measures window-1 latency. Its numbers are not gated: the
// latency has several modes (released at once, after a dissemination
// period, or after a stall of about 8 ms that happens once to three times
// per thousand packets and makes up almost half of the mean), and mean and
// median both moved by up to 18 % between sets of runs of the same code.
func (r *runner) pingPongPhase(d *driver, dur time.Duration, prefix string) {
	r.tr.nextPhase()
	samples := d.pingPong(dur)
	r.attempted += uint64(len(samples)) + d.failed
	r.failed += d.failed
	d.failed = 0
	// The first tenth still pays for cold caches and the burst controller
	// settling.
	samples = samples[len(samples)/10:]
	us := float64(time.Microsecond)
	r.m[prefix+"lat_pingpong_mean_us"] = durMean(samples) / us
	if d == r.nd {
		return
	}
	r.m[prefix+"lat_pingpong_samples"] = float64(len(samples))
	r.m[prefix+"lat_pingpong_p50_us"] = durQuantile(samples, 0.5) / us
	// The highest percentile with at least ten samples beyond it.
	q := 0.99
	if len(samples) < 1000 {
		q = 1 - 10/math.Max(float64(len(samples)), 11)
	}
	r.m[prefix+"lat_pingpong_p99_us"] = durQuantile(samples, q) / us
}

// mainPhase alternates closed-loop slices on FTC and on the NF twin. On a
// traced run every other FTC slice records spans, and the ratio of the two
// kinds is the tracing overhead.
func (r *runner) mainPhase(dur time.Duration) {
	each := dur / (2 * slices)
	var fs, ns []slice
	for k := 0; k < slices; k++ {
		r.tr.nextPhase()
		r.tr.setOn(k%2 == 0)
		fs = append(fs, r.slice(r.fd, each))
		r.tr.setOn(true)
		r.tr.nextPhase()
		ns = append(ns, r.slice(r.nd, each))
	}
	per := func(ss []slice, f func(slice) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}
	var offered, delivered, mallocs, app, wire uint64
	for _, s := range fs {
		offered += s.offered
		delivered += s.delivered
		mallocs += s.mallocs
		app += s.app
		wire += s.wire
	}
	cpuPer := func(s slice) float64 { return float64(s.cpu) / float64(s.delivered) }
	r.notes = append(r.notes,
		fmt.Sprintf("slices ftc_pps %.0f", per(fs, slice.pps)),
		fmt.Sprintf("slices nf_pps %.0f", per(ns, slice.pps)))
	// The two ratios pair each FTC slice with the NF slice next to it, so
	// the machine's speed, which drifts by a fifth within the hour on this
	// box, is on both sides.
	pps, cpu := make([]float64, slices), make([]float64, slices)
	for k := range pps {
		pps[k] = fs[k].pps() / ns[k].pps()
		cpu[k] = cpuPer(fs[k]) / cpuPer(ns[k])
	}
	r.m["ftc.throughput_pps"] = median(per(fs, slice.pps))
	r.m["ftc_nf_ratio"] = median(pps)
	r.m["cpu_ftc_nf_ratio"] = median(cpu)
	r.m["allocs_per_pkt"] = float64(mallocs) / float64(delivered)
	r.m["goodput_ratio"] = float64(app) / float64(wire)
	r.m["delivered_ratio"] = float64(delivered) / float64(offered)
	r.m["ftc.cpu_ns_per_pkt"] = median(per(fs, cpuPer))
	r.m["nf.throughput_pps"] = median(per(ns, slice.pps))
	r.m["nf.cpu_ns_per_pkt"] = median(per(ns, cpuPer))
	if r.tr != nil {
		var on, off []float64
		for _, s := range fs {
			if s.traced {
				on = append(on, s.pps())
			} else {
				off = append(off, s.pps())
			}
		}
		r.m["trace.overhead_ratio"] = median(on) / median(off)
	}
}

// crashAt is when crash k of the crash phase is due.
func crashAt(k int) time.Duration {
	return 100*time.Millisecond + time.Duration(k)*time.Second
}

// crashPhase offers a fixed open-loop rate and fail-stops ring positions 1
// and 2 alternately, once a second, waiting for each recovery report. Ring
// position 0 is never crashed: the generator's target is fixed.
func (r *runner) crashPhase(dur time.Duration) {
	r.tr.nextPhase()
	crashes := int(dur / time.Second)
	if crashes < 1 {
		crashes = 1
	}
	if min := crashAt(crashes-1) + 400*time.Millisecond; dur < min {
		dur = min
	}
	s := r.ftc
	var (
		k         int
		pending   bool
		crashedAt time.Time
		sp        int32
		reports   []ftc.RecoveryReport
		detect    []float64
	)
	collect := func(rep ftc.RecoveryReport) {
		r.tr.end(sp, 1)
		pending = false
		reports = append(reports, rep)
		detect = append(detect, rep.DetectedAt.Sub(crashedAt).Seconds()*1e3)
	}
	recv := s.sink.Received()
	offered, _ := r.fd.openLoop(crashRate, dur, func(elapsed time.Duration) {
		if pending {
			select {
			case rep := <-s.reports:
				collect(rep)
			default:
			}
			return
		}
		if k < crashes && elapsed >= crashAt(k) {
			idx := 1 + k%2
			r.acc.add(coreOf(s.chain.Replica(idx)))
			sp = r.tr.begin(spanCrash)
			crashedAt = time.Now()
			s.chain.Crash(idx)
			pending = true
			k++
		}
	})
	if pending {
		select {
		case rep := <-s.reports:
			collect(rep)
		case <-time.After(5 * time.Second):
			r.tr.end(sp, 0)
			reports = append(reports, ftc.RecoveryReport{Err: fmt.Errorf("no recovery report within 5s")})
		}
	}
	r.fd.settle()
	delivered := s.sink.Received() - recv
	r.attempted += uint64(k)

	var failedRec int
	var init, fetch, reroute []float64
	for _, rep := range reports {
		if rep.Err != nil {
			failedRec++
			r.problem("recovery of ring position %d: %v", rep.RingIndex, rep.Err)
			continue
		}
		init = append(init, rep.Init.Seconds()*1e3)
		fetch = append(fetch, rep.StateFetch.Seconds()*1e3)
		reroute = append(reroute, rep.Reroute.Seconds()*1e3)
	}
	r.failed += uint64(failedRec)
	r.m["delivered_ratio"] = float64(delivered) / float64(offered)
	r.m["orch.detect_ms"] = median(detect)
	r.m["orch.init_ms"] = median(init)
	r.m["orch.fetch_ms"] = median(fetch)
	r.m["orch.reroute_ms"] = median(reroute)
	r.m["orch.outage_ms_per_crash"] = float64(offered-delivered) / crashRate * 1e3 / float64(k)
	r.m["orch.recoveries_failed"] = float64(failedRec)
}

// openPhase offers a quarter of the measured closed-loop throughput on a
// fixed schedule. The sink times each packet from when it left; adding how
// late the generator ran gives the time from when it was due.
func (r *runner) openPhase(dur time.Duration) {
	r.tr.nextPhase()
	s := r.ftc
	s.sink.Latency().Reset()
	offered, late := r.fd.openLoop(0.25*r.m["ftc.throughput_pps"], dur, nil)
	r.fd.settle()
	r.attempted += offered
	us := float64(time.Microsecond)
	r.m["tgen.open_late_us"] = durMean(late) / us
	r.m["tgen.lat_open_p50_us"] = (float64(s.sink.Latency().Quantile(0.5)) + durQuantile(late, 0.5)) / us
	r.m["tgen.lat_open_p99_us"] = (float64(s.sink.Latency().Quantile(0.99)) + durQuantile(late, 0.99)) / us
}

// checks verifies the program's outputs once traffic has stopped.
func (r *runner) checks() {
	sp := r.tr.begin(spanQuiesce)
	err := r.waitQuiescent(5 * time.Second)
	r.tr.end(sp, 0)
	if err != nil {
		r.problem("%v", err)
	}
	sp = r.tr.begin(spanChecks)
	defer r.tr.end(sp, 0)
	lossless := func(name string, s *sut) {
		if sent, got := s.gen.Sent(), s.sink.Received(); sent != got {
			r.problem("%s: sink received %d of %d sent", name, got, sent)
		}
	}
	if !r.w.crash { // the crash phase loses packets by design
		lossless("ftc", r.ftc)
	}
	lossless("nf", r.nf)
	if err := r.checkConvergence(); err != nil {
		r.problem("%v", err)
	}
	if n := r.coreDelta()[cApplyTimeouts]; n != 0 {
		r.problem("%d apply timeouts", n)
	}
}

func (r *runner) waitQuiescent(timeout time.Duration) error {
	if c := r.ftc.chain; c != nil {
		return c.WaitQuiescent(timeout)
	}
	deadline := time.Now().Add(timeout)
	for !r.bridgedQuiescent() {
		if time.Now().After(deadline) {
			return fmt.Errorf("bridged chain did not quiesce in %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// eachGroup calls fn for every (head, follower) pair of the bridged chain.
func (r *runner) eachGroup(fn func(j int, head *core.Head, at int, f *core.Follower) bool) {
	reps, ring := r.ftc.replicas, r.ftc.ring
	for j := 0; j < ring.N; j++ {
		for _, i := range ring.Members(j)[1:] {
			if !fn(j, reps[j].Head(), i, reps[i].Follower(uint16(j))) {
				return
			}
		}
	}
}

// bridgedQuiescent is Chain.Quiescent for replicas no Chain manages.
func (r *runner) bridgedQuiescent() bool {
	ok := true
	r.eachGroup(func(_ int, h *core.Head, _ int, f *core.Follower) bool {
		hv, fm := h.Vector(), f.Max()
		for p := range hv {
			if fm[p] < hv[p] {
				ok = false
			}
		}
		return ok
	})
	for _, rep := range r.ftc.replicas {
		if rep.HeldPackets() != 0 || rep.ForwarderPending() != 0 {
			ok = false
		}
	}
	return ok
}

func (r *runner) checkConvergence() error {
	if c := r.ftc.chain; c != nil {
		return c.CheckConvergence()
	}
	var err error
	r.eachGroup(func(j int, h *core.Head, at int, f *core.Follower) bool {
		hs, fs := sortedSnapshot(h.Store()), sortedSnapshot(f.Store())
		if len(hs) != len(fs) {
			err = fmt.Errorf("mb %d: head has %d keys, follower@%d has %d", j, len(hs), at, len(fs))
			return false
		}
		for k := range hs {
			if hs[k].Key != fs[k].Key || string(hs[k].Value) != string(fs[k].Value) {
				err = fmt.Errorf("mb %d key %q: head and follower@%d differ", j, hs[k].Key, at)
				return false
			}
		}
		return true
	})
	return err
}

func sortedSnapshot(b state.Backend) []state.Update {
	ups := b.Snapshot()
	sort.Slice(ups, func(i, j int) bool { return ups[i].Key < ups[j].Key })
	return ups
}

// Indices into coreTotals.
const (
	cTxFrames = iota
	cPiggyBytes
	cPropagating
	cHeld
	cRepairs
	cDuplicates
	cApplyTimeouts
	cSpilled
	cStaleGen
	cFencedHeld
	cSteals
	cAppBytes
	cWireBytes
	numCore
)

// coreTotals holds the replicas' own counters, summed.
type coreTotals [numCore]uint64

func coreOf(r *core.Replica) coreTotals {
	st := r.Stats()
	return coreTotals{
		cTxFrames:      st.TxFrames.Load(),
		cPiggyBytes:    st.PiggybackBytesOut.Load(),
		cPropagating:   st.Propagating.Load(),
		cHeld:          st.Held.Load(),
		cRepairs:       st.Repairs.Load(),
		cDuplicates:    st.Duplicates.Load(),
		cApplyTimeouts: st.ApplyTimeouts.Load(),
		cSpilled:       st.SpilledLogs.Load(),
		cStaleGen:      st.StaleGen.Load(),
		cFencedHeld:    st.FencedHeld.Load(),
		cSteals:        r.Sched().Steals.Value(),
		cAppBytes:      st.AppBytesOut.Load(),
		cWireBytes:     st.WireBytesOut.Load(),
	}
}

func (t *coreTotals) add(o coreTotals) {
	for i := range t {
		t[i] += o[i]
	}
}

func sumCore(reps []*core.Replica) coreTotals {
	var t coreTotals
	for _, r := range reps {
		t.add(coreOf(r))
	}
	return t
}

// coreDelta is what the replicas counted since the end of setup, crashed
// replicas included.
func (r *runner) coreDelta() coreTotals {
	t := sumCore(r.ftc.liveReplicas())
	t.add(r.acc)
	for i := range t {
		t[i] -= r.base[i]
	}
	return t
}

// coreMetrics turns the replicas' counters since setup into per-packet
// numbers.
func (r *runner) coreMetrics() {
	d := r.coreDelta()
	pkts := float64(r.ftc.sink.Received() - r.basis)
	per := func(i int) float64 { return float64(d[i]) / pkts }
	r.m["core.tx_frames_per_pkt"] = per(cTxFrames)
	r.m["core.piggyback_bytes_per_pkt"] = per(cPiggyBytes)
	r.m["core.propagating_per_kpkt"] = 1e3 * per(cPropagating)
	r.m["core.held_per_pkt"] = per(cHeld)
	r.m["core.repairs_per_kpkt"] = 1e3 * per(cRepairs)
	r.m["core.duplicates_per_kpkt"] = 1e3 * per(cDuplicates)
	r.m["core.apply_timeouts"] = float64(d[cApplyTimeouts])
	r.m["core.spilled_logs_per_kpkt"] = 1e3 * per(cSpilled)
	r.m["core.steals_per_kpkt"] = 1e3 * per(cSteals)
	r.m["core.stale_gen"] = float64(d[cStaleGen])
	r.m["core.fenced_held"] = float64(d[cFencedHeld])
	var held int
	var burst int64
	for _, rep := range r.ftc.liveReplicas() {
		held += rep.HeldPackets()
		if b := rep.Sched().Burst.Value(); b > burst {
			burst = b
		}
	}
	r.m["core.held_at_end"] = float64(held)
	r.m["core.burst_last"] = float64(burst)
}

// depthSampler reads the replicas' ingress queue depths and keeps the
// deepest it saw.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func (r *runner) startDepthSampler() *depthSampler {
	ds := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := r.ftc
	go func() {
		defer close(ds.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		var buf []int
		for {
			select {
			case <-ds.stop:
				return
			case <-t.C:
			}
			// Recoveries replace replicas, so look them up every time.
			for i, rep := range s.liveReplicas() {
				n := s.fabricOf(i).Node(rep.SimID())
				if n == nil {
					continue
				}
				buf = n.QueueDepths(buf[:0])
				for _, d := range buf {
					if d > ds.max {
						ds.max = d
					}
				}
			}
		}
	}()
	return ds
}

func (ds *depthSampler) finish() int {
	close(ds.stop)
	<-ds.done
	return ds.max
}

// fabricMetrics reports what the fabrics dropped at full queues or lost.
func (r *runner) fabricMetrics() {
	var dropped, lost uint64
	for _, f := range r.ftc.fabrics {
		_, _, d, l := f.Stats()
		dropped += d
		lost += l
	}
	kpkts := float64(r.ftc.sink.Received()) / 1e3
	r.m["netsim.dropped_per_kpkt"] = float64(dropped) / kpkts
	r.m["netsim.lost_per_kpkt"] = float64(lost) / kpkts
}

// bridgeMetrics sums the tunnel counters of the workload's own bridges.
func (r *runner) bridgeMetrics() {
	var frames, dgrams, sendSys, recvSys, frameBytes, wireBytes, trunc, oversize uint64
	for _, b := range r.ftc.bridges {
		st := b.Stats()
		r.sockBufs = [2]int{st.EffRcvBuf, st.EffSndBuf}
		frames += st.FramesOut
		dgrams += st.DatagramsOut
		sendSys += st.SendSyscalls
		recvSys += st.RecvSyscalls
		frameBytes += st.FrameBytesOut
		wireBytes += st.WireBytesOut
		trunc += st.TruncatedDatagrams
		oversize += st.OversizeDrops
	}
	div := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.m["trans.syscalls_per_frame"] = div(sendSys+recvSys, frames)
	r.m["trans.frames_per_datagram"] = div(frames, dgrams)
	r.m["trans.datagrams_per_syscall"] = div(dgrams, sendSys)
	r.m["trans.goodput_ratio"] = div(frameBytes, wireBytes)
	r.m["trans.truncated_datagrams"] = float64(trunc)
	r.m["trans.oversize_drops"] = float64(oversize)
}

// hostCPU reads the first line of /proc/stat: all the time the kernel has
// accounted on this machine, and the part of it the hypervisor gave to
// someone else. Both are 0 where the file cannot be read.
func hostCPU() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// run executes the workload and fills r.m.
func (r *runner) run() error {
	root := r.tr.begin(spanRun)
	defer r.stop()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	total0, steal0 := hostCPU()

	if err := r.setup(); err != nil {
		return err
	}
	// Shares of -seconds. Traced runs give part of the main phase to the
	// NF twin's ping-pong and the open loop.
	ping, main, crash := 0.10, 0.90, 0.0
	if r.w.crash {
		main, crash = 0.45, 0.45
	}
	var ds *depthSampler
	if r.tr != nil {
		main -= 0.15
		ds = r.startDepthSampler()
	}
	r.pingPongPhase(r.fd, r.phase(ping), "tgen.")
	if r.tr != nil {
		r.pingPongPhase(r.nd, r.phase(0.05), "nf.")
	}
	r.mainPhase(r.phase(main))
	if r.tr != nil {
		r.openPhase(r.phase(0.10))
	}
	if r.w.crash {
		r.crashPhase(r.phase(crash))
	} else {
		for _, name := range []string{"detect_ms", "init_ms", "fetch_ms", "reroute_ms", "outage_ms_per_crash", "recoveries_failed"} {
			r.m["orch."+name] = 0 // nothing crashes on this workload
		}
	}
	if ds != nil {
		r.m["netsim.queue_depth_max"] = float64(ds.finish())
	}
	r.checks()
	r.coreMetrics()
	r.fabricMetrics()
	r.bridgeMetrics()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.m["go.gc_cycles"] = float64(ms.NumGC - ms0.NumGC)
	r.m["go.gc_pause_ms"] = float64(ms.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	r.m["go.heap_mb"] = float64(ms.HeapInuse) / (1 << 20)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r.m["rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	// A run the hypervisor starved measures the neighbours, not the program.
	if total, steal := hostCPU(); total > total0 {
		r.m["host.steal_ratio"] = (steal - steal0) / (total - total0)
	} else {
		r.m["host.steal_ratio"] = 0
	}

	if r.tr != nil {
		r.stop() // the replay gets the machine to itself
		if err := r.replay(); err != nil {
			return err
		}
		r.tr.end(root, 0)
		r.m["trace.spans"] = float64(len(r.tr.spans))
	}
	return nil
}
