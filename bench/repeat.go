package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// repeatRuns runs the workload n times as child processes, each with the
// next seed, and prints per end-to-end metric the median, the quartiles and
// their distance as a share of the median, next to the metric's bound. It
// also splits the runs into odd and even ones and flags a metric whose two
// halves disagree by more than its bound: the check a later change has to
// pass against this one.
func repeatRuns(w workload, seed int64, seconds float64, n int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs at least 2 runs")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	values := make(map[string][]float64)
	status := 0
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		res, ok := lastResult(out)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: run %d printed no result: %v\n", i, err)
			return 1
		}
		if err != nil || !res.Correct || res.Failed != 0 {
			fmt.Printf("run %d: correct=%v failed=%d of %d (%v)\n", i, res.Correct, res.Failed, res.Attempted, err)
			status = 1
		}
		fmt.Printf("run %d seed %d:", i, seed+int64(i))
		for _, m := range endToEnd {
			values[m.name] = append(values[m.name], res.Metrics[m.name].Value)
			fmt.Printf(" %s=%.6g", m.name, res.Metrics[m.name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%s: %d runs, seeds %d..%d, %g s each\n", w.name, n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-22s %-6s %14s %14s %14s %9s %7s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "bound", "halves")
	for _, m := range endToEnd {
		v := values[m.name]
		q1, q2, q3 := quartiles(v)
		var halves [2][]float64
		for i, x := range v {
			halves[i%2] = append(halves[i%2], x)
		}
		a, b := median(halves[0]), median(halves[1])
		gap := (b - a) / a
		if gap < 0 {
			gap = -gap
		}
		flag := ""
		if (q3-q1)/q2 > m.bound {
			flag += " SPREAD>BOUND"
			status = 1
		}
		if gap > m.bound {
			flag += " HALVES>BOUND"
			status = 1
		}
		fmt.Printf("%-22s %-6s %14.4f %14.4f %14.4f %9.4f %7.2f %9.4f%s\n", m.name, m.unit, q1, q2, q3, (q3-q1)/q2, m.bound, gap, flag)
	}
	return status
}

// lastResult parses the last line of a run's output.
func lastResult(out []byte) (result, bool) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil || res.Metrics == nil {
		return result{}, false
	}
	return res, true
}
