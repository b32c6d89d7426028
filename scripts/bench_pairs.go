//go:build ignore

// Command bench_pairs summarizes the paired runs scripts/bench_pairs.sh
// leaves behind: <dir>/parent-<seed>.json and <dir>/change-<seed>.json, each
// the harness's one-line result. Per end-to-end metric of BENCHMARK.json it
// prints both sides' medians and quartiles, wins/ties/losses over the pairs,
// the metric's bound, and a verdict:
//
//   - unresolved: the parent's own quartile distance exceeds the bound, so
//     neither "unchanged" nor "regressed" can be told (unless every run of
//     the change beats every run of the parent);
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - better: the change wins at least nine tenths of the pairs (ties count
//     for neither side) and the medians differ by more than the parent's
//     quartile distance — the bar a claimed gain has to clear;
//   - within bound: none of the above.
//
// Bounds and quartile distances are relative to the parent's median.
//
// Usage: go run scripts/bench_pairs.go [-workload W] [-parent REV] BENCHMARK.json <dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "?", "workload name, for the heading")
	parent := flag.String("parent", "?", "parent revision, for the heading")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench_pairs [-workload W] [-parent REV] BENCHMARK.json <dir>")
		os.Exit(2)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	mustRead(flag.Arg(0), &bench)

	var par, chg []result
	for seed := 1; ; seed++ {
		var p, c result
		pf := filepath.Join(flag.Arg(1), fmt.Sprintf("parent-%d.json", seed))
		if _, err := os.Stat(pf); err != nil {
			break
		}
		mustRead(pf, &p)
		mustRead(filepath.Join(flag.Arg(1), fmt.Sprintf("change-%d.json", seed)), &c)
		par, chg = append(par, p), append(chg, c)
	}
	if len(par) == 0 {
		fmt.Fprintln(os.Stderr, "bench_pairs: no parent-<seed>.json in", flag.Arg(1))
		os.Exit(2)
	}

	fmt.Printf("workload %s: %d alternated pairs, seeds 1..%d, parent %s\n", *workload, len(par), len(par), *parent)
	if len(par) < 10 {
		fmt.Println("fewer than ten pairs: the verdicts below are indications, not findings")
	}
	fmt.Printf("failed operations: parent %s, change %s\n", failures(par), failures(chg))
	fmt.Printf("%-17s %-6s %-31s %-31s %-8s %-5s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "W/T/L", "bound", "verdict")
	for _, m := range bench.EndToEnd {
		p, c := values(par, m.Name), values(chg, m.Name)
		sign := 1.0 // orient so that larger is better
		if m.Better == "lower" {
			sign = -1
		}
		wins, ties, losses := 0, 0, 0
		for i := range p {
			switch d := sign * (c[i] - p[i]); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			default:
				ties++
			}
		}
		pq1, pmed, pq3 := quartiles(p)
		cq1, cmed, cq3 := quartiles(c)
		scale := math.Abs(pmed)
		if scale == 0 {
			scale = 1
		}
		spread := (pq3 - pq1) / scale
		gain := sign * (cmed - pmed) / scale
		verdict := "within bound"
		switch {
		case spread > m.Bound && !dominates(sign, c, p):
			verdict = "unresolved"
		case gain < -m.Bound:
			verdict = "worse"
		case float64(wins) >= 0.9*float64(len(p)) && gain > spread:
			verdict = "better"
		}
		fmt.Printf("%-17s %-6s %-31s %-31s %-8s %-5g %s\n", m.Name, m.Better,
			fmt.Sprintf("%.4g [%.4g, %.4g]", pmed, pq1, pq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", cmed, cq1, cq3),
			fmt.Sprintf("%d/%d/%d", wins, ties, losses), m.Bound, verdict)
	}
	fmt.Println("every run, in seed order:")
	for _, m := range bench.EndToEnd {
		fmt.Printf("  %-17s parent %s\n  %-17s change %s\n", m.Name, list(values(par, m.Name)), "", list(values(chg, m.Name)))
	}
}

func mustRead(path string, v any) {
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench_pairs: %s: %v\n", path, err)
		os.Exit(2)
	}
}

func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// failures renders a side's failed share and whether every run's output
// checks passed.
func failures(rs []result) string {
	attempted, failed, correct := 0, 0, true
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
		correct = correct && r.Correct
	}
	return fmt.Sprintf("%d of %d (correct=%v)", failed, attempted, correct)
}

// quartiles returns the first quartile, median and third quartile by linear
// interpolation between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// dominates reports whether every run of c is better than every run of p.
func dominates(sign float64, c, p []float64) bool {
	worstC, bestP := math.Inf(1), math.Inf(-1)
	for i := range c {
		worstC = math.Min(worstC, sign*c[i])
		bestP = math.Max(bestP, sign*p[i])
	}
	return worstC > bestP
}

func list(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
