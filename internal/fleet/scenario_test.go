package fleet

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sampleJSON = `{
  "name": "smoke", "seed": 7, "time_scale": 1.0,
  "links": {"latency_us": 50, "loss_rate": 0.0},
  "pool": {"servers": 4, "cpu_per_server": 4, "bandwidth_mbps": 1000},
  "traffic": {"packet_size": 256, "rate_scale": 0.01, "flow_ttl_ms": 60000},
  "chains": [
    {"name": "edge", "arrival_ms": 0, "ttl_ms": 1000, "bandwidth_mbps": 300, "max_latency_ms": 50,
     "users": 16, "f": 1, "middleboxes": ["monitor", "flowcounter"]},
    {"name": "subs", "arrival_ms": 100, "ttl_ms": 900, "users": 10, "per_user_mbps": 25,
     "max_latency_ms": 40, "f": 1, "middleboxes": ["nat"]}
  ],
  "crashes": [{"at_ms": 500, "server": "auto"}]
}`

func TestParseScenario(t *testing.T) {
	s, err := ParseScenario([]byte(sampleJSON))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Name != "smoke" || s.Seed != 7 {
		t.Fatalf("header mismatch: %+v", s)
	}
	if s.Links.LatencyUs != 50 || s.Pool.Servers != 4 || s.Traffic.RateScale != 0.01 {
		t.Fatalf("nested sections mismatch: %+v", s)
	}
	if len(s.Chains) != 2 || len(s.Crashes) != 1 {
		t.Fatalf("lists mismatch: %d chains, %d crashes", len(s.Chains), len(s.Crashes))
	}
	if got := s.Chains[0].Middleboxes; len(got) != 2 || got[0] != "monitor" || got[1] != "flowcounter" {
		t.Fatalf("middlebox list mismatch: %v", got)
	}
	if got := s.Chains[1].Middleboxes; len(got) != 1 || got[0] != "nat" {
		t.Fatalf("middlebox list mismatch: %v", got)
	}
	if s.Crashes[0].Server != "auto" || s.Crashes[0].AtMs != 500 {
		t.Fatalf("crash mismatch: %+v", s.Crashes[0])
	}

	specs, err := s.ExpandChains()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(specs) != 2 {
		t.Fatalf("expanded %d chains, want 2", len(specs))
	}
	if specs[0].Name != "edge" || specs[1].Name != "subs" {
		t.Fatalf("arrival order wrong: %v, %v", specs[0].Name, specs[1].Name)
	}
	if got := specs[1].Demand(); got != 250 {
		t.Fatalf("derived demand = %v, want 250 (10 users x 25 Mbps)", got)
	}
	if specs[0].TTL != time.Second || specs[0].MaxResponseLatency != 50*time.Millisecond {
		t.Fatalf("duration conversion wrong: %+v", specs[0])
	}
}

func TestParseScenarioRejectsUnknownKey(t *testing.T) {
	_, err := ParseScenario([]byte(`{"name": "x", "bogus_knob": 3}`))
	if err == nil || !strings.Contains(err.Error(), "bogus_knob") {
		t.Fatalf("unknown key not rejected: %v", err)
	}
	for _, trailing := range []string{`{"name": "x"} {"name": "y"}`, `{"name": "x"}}`, `{"name": "x"} # note`} {
		if _, err := ParseScenario([]byte(trailing)); err == nil {
			t.Fatalf("data after the scenario object not rejected: %s", trailing)
		}
	}
}

// TestCheckedInScenariosDecode loads every scenario file the repository
// ships, so one that drifts from the config surface fails here and not only
// inside ftclab.
func TestCheckedInScenariosDecode(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found (%v)", err)
	}
	for _, f := range files {
		s, err := LoadScenario(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := s.ExpandChains(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// The Poisson process is a pure function of the seed: equal seeds draw
// equal fleets, different seeds draw different ones.
func TestExpandChainsPoissonDeterminism(t *testing.T) {
	base := Scenario{
		Seed: 42,
		Arrivals: ArrivalsConfig{
			Count: 12, RatePerS: 5,
			TTLMinMs: 500, TTLMaxMs: 1500,
			BandwidthMinMbps: 50, BandwidthMaxMbps: 200,
			Templates: []string{"monitor", "monitor+nat"},
		},
	}
	a, err := base.ExpandChains()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	b, _ := base.ExpandChains()
	if len(a) != 12 {
		t.Fatalf("drew %d chains, want 12", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Arrival != b[i].Arrival || a[i].BandwidthMbps != b[i].BandwidthMbps {
			t.Fatalf("same seed drew different fleets at %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not sorted: %v after %v", a[i].Arrival, a[i-1].Arrival)
		}
		if a[i].TTL < 500*time.Millisecond || a[i].TTL > 1500*time.Millisecond {
			t.Fatalf("TTL %v outside configured bounds", a[i].TTL)
		}
	}
	other := base
	other.Seed = 43
	c, _ := other.ExpandChains()
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical arrival processes")
	}
}

func TestExpandChainsRejectsDuplicateNames(t *testing.T) {
	s := Scenario{Chains: []ChainConfig{
		{Name: "x", TTLMs: 100, BandwidthMbps: 1, Users: 1, Middleboxes: []string{"monitor"}},
		{Name: "x", TTLMs: 100, BandwidthMbps: 1, Users: 1, Middleboxes: []string{"monitor"}},
	}}
	if _, err := s.ExpandChains(); err == nil {
		t.Fatal("duplicate chain names not rejected")
	}
}
