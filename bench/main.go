// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics and a per-layer ledger, all measured from outside the
// program through its exported functions. One process runs one workload
// once, so memory, CPU and allocation counts are per workload. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric describes one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metric struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEnd must match BENCHMARK.json's end_to_end list; the smoke test
// checks it does.
var endToEnd = []metric{
	{"ftc_nf_ratio", "ratio", true, 0.18},
	{"cpu_ftc_nf_ratio", "ratio", false, 0.18},
	{"allocs_per_pkt", "count", false, 0.06},
	{"goodput_ratio", "ratio", true, 0.03},
	{"delivered_ratio", "ratio", true, 0.04},
	{"rss_mb", "MB", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// perLayer must match BENCHMARK.json's per_layer list.
var perLayer = []metric{
	{name: "wire.parse_ns", unit: "ns"}, {name: "wire.rss_ns", unit: "ns"}, {name: "wire.trailer_ns", unit: "ns"},
	{name: "mbox.process_ns", unit: "ns"}, {name: "state.exec_ns", unit: "ns"},
	{name: "core.head_txn_ns", unit: "ns"}, {name: "core.encode_ns", unit: "ns"},
	{name: "core.decode_ns", unit: "ns"}, {name: "core.follower_apply_ns", unit: "ns"},
	{name: "netsim.hop_ns", unit: "ns"}, {name: "netsim.pool_ns", unit: "ns"},
	{name: "trans.pack_ns", unit: "ns"}, {name: "trans.hop_ns", unit: "ns"},
	{name: "trans.syscalls_per_frame", unit: "count"}, {name: "trans.frames_per_datagram", unit: "count", higher: true},
	{name: "trans.datagrams_per_syscall", unit: "count", higher: true}, {name: "trans.goodput_ratio", unit: "ratio", higher: true},
	{name: "trans.truncated_datagrams", unit: "count"}, {name: "trans.oversize_drops", unit: "count"},
	{name: "core.tx_frames_per_pkt", unit: "count"}, {name: "core.piggyback_bytes_per_pkt", unit: "B"},
	{name: "core.propagating_per_kpkt", unit: "count"}, {name: "core.held_per_pkt", unit: "count"},
	{name: "core.held_at_end", unit: "count"}, {name: "core.repairs_per_kpkt", unit: "count"},
	{name: "core.duplicates_per_kpkt", unit: "count"}, {name: "core.apply_timeouts", unit: "count"},
	{name: "core.spilled_logs_per_kpkt", unit: "count"}, {name: "core.steals_per_kpkt", unit: "count"},
	{name: "core.burst_last", unit: "count", higher: true}, {name: "core.stale_gen", unit: "count"},
	{name: "core.fenced_held", unit: "count"},
	{name: "netsim.dropped_per_kpkt", unit: "count"}, {name: "netsim.lost_per_kpkt", unit: "count"},
	{name: "netsim.queue_depth_max", unit: "count"},
	{name: "orch.detect_ms", unit: "ms"}, {name: "orch.init_ms", unit: "ms"}, {name: "orch.fetch_ms", unit: "ms"},
	{name: "orch.reroute_ms", unit: "ms"}, {name: "orch.outage_ms_per_crash", unit: "ms"},
	{name: "orch.recoveries_failed", unit: "count"},
	{name: "ftc.throughput_pps", unit: "pkt/s", higher: true}, {name: "ftc.cpu_ns_per_pkt", unit: "ns"},
	{name: "nf.throughput_pps", unit: "pkt/s", higher: true}, {name: "nf.cpu_ns_per_pkt", unit: "ns"},
	{name: "nf.lat_pingpong_mean_us", unit: "us"}, {name: "tgen.send_ns", unit: "ns"},
	{name: "tgen.lat_pingpong_mean_us", unit: "us"}, {name: "tgen.lat_pingpong_p50_us", unit: "us"}, {name: "tgen.lat_pingpong_p99_us", unit: "us"},
	{name: "tgen.lat_pingpong_samples", unit: "count", higher: true},
	{name: "tgen.lat_open_p50_us", unit: "us"}, {name: "tgen.lat_open_p99_us", unit: "us"},
	{name: "tgen.open_late_us", unit: "us"},
	{name: "go.gc_cycles", unit: "count"}, {name: "go.gc_pause_ms", unit: "ms"}, {name: "go.heap_mb", unit: "MB"},
	{name: "host.steal_ratio", unit: "ratio"},
	{name: "ledger.sum_ns", unit: "ns", higher: true}, {name: "ledger.residual_ratio", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio", higher: true}, {name: "trace.spans", unit: "count"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "traffic seed: moves the source block and destination port")
		seconds  = flag.Float64("seconds", pinnedSeconds, "how long the run measures; fixed counts scale with it")
		trace    = flag.Int("trace", 0, "1: record spans, replay the layers, and report the per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
		repeat   = flag.Int("repeat", 0, "run the workload this many times as child processes and print the spread")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: bench -workload {%s} [-seed n] [-seconds s] [-trace 0|1] [-repeat n]\n", workloadNames())
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(w, *seed, *seconds, *repeat))
	}
	// Two Ps: the generator, the sink and every replica worker share them,
	// as they share this box's two CPUs.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	res, err := execute(os.Stdout, w, *seed, *seconds, *trace != 0, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload once and prints the stamp, every metric it
// measured by name with its unit, the failed checks, and the result line.
// The result carries the end-to-end metrics, or on a traced run the
// per-layer ones.
func execute(out io.Writer, w workload, seed int64, seconds float64, traced bool, traceOut string) (result, error) {
	r := &runner{w: w, seed: seed, seconds: seconds, m: make(map[string]float64)}
	selected := endToEnd
	if traced {
		r.tr = newTracer()
		selected = perLayer
	}
	if err := r.run(); err != nil {
		return result{}, err
	}
	if traced {
		if err := r.tr.write(traceOut); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(r.tr.spans), traceOut)
	}
	fmt.Fprintln(out, stamp(r))
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if v, have := r.m[m.name]; have {
				fmt.Fprintf(out, "metric %-32s %16.4f %s\n", m.name, v, m.unit)
			}
		}
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]reported)}
	for _, m := range selected {
		v, have := r.m[m.name]
		if !have || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s: have=%v value=%v", m.name, have, v)
			v = 0
		}
		res.Metrics[m.name] = reported{Value: v, Unit: m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "check failed:", p)
	}
	res.Correct = len(r.problems) == 0
	fmt.Fprintf(out, "ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// stamp says what machine and build produced the numbers; runs with
// different stamps are not comparable.
func stamp(r *runner) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("stamp workload=%s seed=%d seconds=%g traced=%v numcpu=%d gomaxprocs=%d go=%s commit=%s kernel=%s so_rcvbuf=%d so_sndbuf=%d",
		r.w.name, r.seed, r.seconds, r.tr != nil, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, kernel, r.sockBufs[0], r.sockBufs[1])
}
