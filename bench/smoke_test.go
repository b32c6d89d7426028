package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func better(m metric) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables the
// program prints from saying the same thing.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != pinnedSeconds {
		t.Errorf("run_seconds %d, pinnedSeconds %d", bf.RunSeconds, pinnedSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q, or their why differs", i, bf.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, decl []declared, table []metric, bounded bool) {
		if len(decl) != len(table) {
			t.Fatalf("%s: %d declared, %d in the table", kind, len(decl), len(table))
		}
		for i, m := range table {
			d := decl[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != better(m) || (bounded && d.Bound != m.bound) {
				t.Errorf("%s %d: declared %+v, table %+v", kind, i, d, m)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
}

var metricLine = regexp.MustCompile(`(?m)^metric (\S+)\s+(\S+) (\S+)$`)

// TestSmoke runs every workload at 1/100 of the pinned length, traced, and
// checks that every declared metric is printed with a finite value and a
// unit, that the result line carries exactly the per-layer metrics, and
// that the span file parses. It does not judge the values or the output
// checks: at this scale they are noise.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			var out bytes.Buffer
			res, err := execute(&out, w, 7, pinnedSeconds/100.0, true, spans)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			printed := make(map[string]string)
			for _, m := range metricLine.FindAllStringSubmatch(out.String(), -1) {
				printed[m[1]] = m[3]
			}
			for _, d := range append(append([]declared(nil), bf.EndToEnd...), bf.PerLayer...) {
				if unit, ok := printed[d.Name]; !ok || unit != d.Unit {
					t.Errorf("metric %s: printed=%v unit %q, declared %q", d.Name, ok, unit, d.Unit)
				}
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("result has %d metrics, %d per-layer declared", len(res.Metrics), len(bf.PerLayer))
			}
			for _, d := range bf.PerLayer {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("result metric %s: present=%v %+v", d.Name, ok, m)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("attempted %d", res.Attempted)
			}
			if last, ok := lastResult(out.Bytes()); !ok || len(last.Metrics) != len(res.Metrics) {
				t.Errorf("last line is not the result")
			}

			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Names []string  `json:"names"`
				Spans [][]int64 `json:"spans"`
			}
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(file.Names) != numSpanNames || len(file.Spans) == 0 {
				t.Fatalf("span file has %d names, %d spans", len(file.Names), len(file.Spans))
			}
			for i, s := range file.Spans {
				if len(s) != 6 || s[0] < 0 || s[0] >= numSpanNames || s[2] < s[1] || s[3] >= int64(i) {
					t.Fatalf("span %d malformed: %v", i, s)
				}
			}
		})
	}
}

// TestUntracedResult checks that an untraced run reports exactly the
// end-to-end metrics.
func TestUntracedResult(t *testing.T) {
	var out bytes.Buffer
	res, err := execute(&out, workloads[0], 7, pinnedSeconds/100.0, false, "")
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("metric %s: present=%v %+v", m.name, ok, got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestKilledReplicaEndsRun kills a replica in the middle of a closed loop
// over the bridges: the loop must end with failed operations, not hang.
func TestKilledReplicaEndsRun(t *testing.T) {
	w, _ := findWorkload("bridge3")
	s, err := buildFTC(w, w.spec(7))
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	d := &driver{s: s}
	if d.closedCount(2000); d.failed != 0 {
		t.Fatalf("%d packets failed before the kill", d.failed)
	}
	s.replicas[1].Stop()
	d.closedCount(400) // less than a window: one deadline, not several
	if d.failed == 0 {
		t.Fatal("no failed operations after a replica was killed")
	}
}
