package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

// Scenario is the JSON config surface for a fleet run: the shared server
// pool, the fabric's link behaviour, the traffic shape, a Poisson arrival
// process, explicitly scheduled chains, and a crash timeline. Durations in
// the file carry their unit in the field name (_ms, _us, per_s) and every
// field's doc comment states its unit — `make doclint` enforces this for
// every json-tagged field in this package.
type Scenario struct {
	// Name labels the scenario in reports (dimensionless).
	Name string `json:"name"`
	// Seed seeds the Poisson arrival process and every other scenario
	// randomness source; equal seeds draw equal fleets (dimensionless).
	Seed int64 `json:"seed"`
	// TimeScale multiplies every scenario duration at run time, so one
	// scenario file can replay compressed or stretched (multiplier;
	// 0 means 1.0).
	TimeScale float64 `json:"time_scale"`
	// RunSlackMs is the extra wall-clock wait in ms after the last chain's
	// scheduled lifetime before the run is declared wedged.
	RunSlackMs float64 `json:"run_slack_ms"`
	// Links shapes every fabric link.
	Links LinksConfig `json:"links"`
	// Pool sizes the shared server pool.
	Pool PoolConfig `json:"pool"`
	// Traffic shapes the per-chain workloads.
	Traffic TrafficConfig `json:"traffic"`
	// Arrivals, when count > 0, generates chains via a Poisson process.
	Arrivals ArrivalsConfig `json:"arrivals"`
	// OrchMembers is the per-chain orchestrator ensemble size in members
	// (count): 0 or 1 runs an unreplicated orchestrator, 3 survives one
	// orchestrator crash, 5 survives two. Odd sizes keep majorities clean.
	OrchMembers int `json:"orch_members"`
	// Chains lists explicitly scheduled chains (merged with Arrivals).
	Chains []ChainConfig `json:"chains"`
	// Crashes schedules mid-run server crashes.
	Crashes []CrashConfig `json:"crashes"`
}

// LinksConfig shapes the default profile of every fabric link.
type LinksConfig struct {
	// LatencyUs is the one-way link propagation delay in µs (0 keeps the
	// zero-latency fast path).
	LatencyUs float64 `json:"latency_us"`
	// LossRate is the fraction of frames each link drops (0..1 fraction).
	LossRate float64 `json:"loss_rate"`
}

// PoolConfig sizes the shared server pool chains are admitted against.
type PoolConfig struct {
	// Servers is the number of servers in the pool (count).
	Servers int `json:"servers"`
	// CPUPerServer is each server's processing capacity in CPU units; one
	// placed ring replica consumes one CPU unit.
	CPUPerServer int `json:"cpu_per_server"`
	// BandwidthMbps is each server's NIC capacity in Mbps.
	BandwidthMbps float64 `json:"bandwidth_mbps"`
}

// TrafficConfig shapes the workload every admitted chain offers.
type TrafficConfig struct {
	// PacketSize is the workload frame size in bytes.
	PacketSize int `json:"packet_size"`
	// RateScale multiplies every chain's offered packet rate without
	// changing its admission-control bandwidth demand — the knob that lets
	// a laptop-scale run keep fleet admission math at production numbers
	// (multiplier; 0 means 1.0).
	RateScale float64 `json:"rate_scale"`
	// FlowTTLMs is the per-flow idle TTL in ms armed on every chain's
	// stores; fleet teardown drains all remaining flow state through this
	// TTL-wheel path (0 means 600000 ms).
	FlowTTLMs float64 `json:"flow_ttl_ms"`
}

// ArrivalsConfig generates chains by a Poisson process: exponential
// inter-arrival times at RatePerS, with per-chain attributes drawn
// uniformly from the min/max ranges below.
type ArrivalsConfig struct {
	// Count is how many chains the process generates (count).
	Count int `json:"count"`
	// RatePerS is the mean arrival rate in chains per second.
	RatePerS float64 `json:"rate_per_s"`
	// TTLMinMs and TTLMaxMs bound the uniformly drawn chain lifetime in ms.
	TTLMinMs float64 `json:"ttl_min_ms"`
	// TTLMaxMs is the upper lifetime bound in ms.
	TTLMaxMs float64 `json:"ttl_max_ms"`
	// BandwidthMinMbps and BandwidthMaxMbps bound the uniformly drawn
	// bandwidth demand in Mbps.
	BandwidthMinMbps float64 `json:"bandwidth_min_mbps"`
	// BandwidthMaxMbps is the upper demand bound in Mbps.
	BandwidthMaxMbps float64 `json:"bandwidth_max_mbps"`
	// MaxLatencyMs is every generated chain's response-latency SLA in ms.
	MaxLatencyMs float64 `json:"max_latency_ms"`
	// UsersMin and UsersMax bound the uniformly drawn subscriber count
	// (count).
	UsersMin int `json:"users_min"`
	// UsersMax is the upper subscriber bound (count).
	UsersMax int `json:"users_max"`
	// F is every generated chain's tolerated failure count (count).
	F int `json:"f"`
	// DowntimeMs is every generated chain's cumulative recovery-downtime
	// budget in ms.
	DowntimeMs float64 `json:"downtime_ms"`
	// Templates lists middlebox-chain templates cycled across generated
	// chains, each a "+"-joined type list like "monitor+nat"
	// (dimensionless).
	Templates []string `json:"templates"`
}

// ChainConfig is one explicitly scheduled chain in a scenario file — the
// JSON spelling of ChainSpec, durations in ms.
type ChainConfig struct {
	// Name identifies the chain; must be unique (dimensionless).
	Name string `json:"name"`
	// ArrivalMs is the arrival offset from scenario start in ms.
	ArrivalMs float64 `json:"arrival_ms"`
	// TTLMs is the chain lifetime in ms.
	TTLMs float64 `json:"ttl_ms"`
	// BandwidthMbps is the bandwidth demand in Mbps (0 derives it as
	// users × per_user_mbps).
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	// MaxLatencyMs is the response-latency SLA in ms.
	MaxLatencyMs float64 `json:"max_latency_ms"`
	// Users is the subscriber count, mapped to generator flows (count).
	Users int `json:"users"`
	// PerUserMbps is the per-user data rate in Mbps (used when
	// bandwidth_mbps is 0).
	PerUserMbps float64 `json:"per_user_mbps"`
	// F is the tolerated failure count (count).
	F int `json:"f"`
	// Middleboxes lists the chain's middlebox types in order
	// (dimensionless; see BuildMiddleboxes).
	Middleboxes []string `json:"middleboxes"`
	// DowntimeMs is the cumulative recovery-downtime budget in ms.
	DowntimeMs float64 `json:"downtime_ms"`
}

// CrashConfig schedules one mid-run server crash.
type CrashConfig struct {
	// AtMs is the crash time as an offset from scenario start in ms.
	AtMs float64 `json:"at_ms"`
	// Server names the server to kill, or "auto" to pick the up server
	// hosting ring replicas of the most distinct chains at that moment
	// (dimensionless).
	Server string `json:"server"`
}

func ms(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

// WithDefaults fills zero fields with scenario defaults.
func (s Scenario) WithDefaults() Scenario {
	if s.Name == "" {
		s.Name = "fleet"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TimeScale <= 0 {
		s.TimeScale = 1
	}
	if s.RunSlackMs <= 0 {
		s.RunSlackMs = 5000
	}
	if s.Pool.Servers <= 0 {
		s.Pool.Servers = 8
	}
	if s.Pool.CPUPerServer <= 0 {
		s.Pool.CPUPerServer = 4
	}
	if s.Pool.BandwidthMbps <= 0 {
		s.Pool.BandwidthMbps = 1000
	}
	if s.Traffic.PacketSize <= 0 {
		s.Traffic.PacketSize = 256
	}
	if s.Traffic.RateScale <= 0 {
		s.Traffic.RateScale = 1
	}
	if s.Traffic.FlowTTLMs <= 0 {
		s.Traffic.FlowTTLMs = 600000
	}
	return s
}

// orchMembers is the effective per-chain orchestrator ensemble size.
func (s Scenario) orchMembers() int {
	if s.OrchMembers < 1 {
		return 1
	}
	return s.OrchMembers
}

// scale applies the scenario TimeScale to a duration.
func (s Scenario) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * s.TimeScale)
}

// LoadScenario reads and decodes a scenario JSON file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	return ParseScenario(data)
}

// ParseScenario decodes one scenario JSON object. Unknown keys are an error
// — a typo in a scenario file must not silently become a default — and so
// is anything but whitespace after the object.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("fleet: scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("fleet: scenario: data after the top-level object")
	}
	return s, nil
}

// ExpandChains materializes the scenario's full arrival sequence: the
// Poisson-generated chains (seeded, so equal scenarios draw equal fleets)
// merged with the explicitly scheduled ones, sorted by arrival time with
// name as the deterministic tiebreak.
func (s Scenario) ExpandChains() ([]ChainSpec, error) {
	var out []ChainSpec
	for _, c := range s.Chains {
		spec := ChainSpec{
			Name:               c.Name,
			Arrival:            ms(c.ArrivalMs),
			TTL:                ms(c.TTLMs),
			BandwidthMbps:      c.BandwidthMbps,
			MaxResponseLatency: ms(c.MaxLatencyMs),
			Users:              c.Users,
			PerUserMbps:        c.PerUserMbps,
			Middleboxes:        append([]string(nil), c.Middleboxes...),
			F:                  c.F,
			DowntimeBudget:     ms(c.DowntimeMs),
		}
		if spec.F <= 0 {
			spec.F = 1
		}
		if spec.MaxResponseLatency <= 0 {
			spec.MaxResponseLatency = 50 * time.Millisecond
		}
		out = append(out, spec)
	}
	a := s.Arrivals
	if a.Count > 0 {
		if a.RatePerS <= 0 {
			return nil, fmt.Errorf("fleet: arrivals.rate_per_s must be positive when arrivals.count > 0")
		}
		if len(a.Templates) == 0 {
			a.Templates = []string{"monitor+nat"}
		}
		if a.TTLMinMs <= 0 {
			a.TTLMinMs = 1000
		}
		if a.TTLMaxMs < a.TTLMinMs {
			a.TTLMaxMs = a.TTLMinMs
		}
		if a.UsersMin <= 0 {
			a.UsersMin = 8
		}
		if a.UsersMax < a.UsersMin {
			a.UsersMax = a.UsersMin
		}
		if a.BandwidthMinMbps <= 0 {
			a.BandwidthMinMbps = 50
		}
		if a.BandwidthMaxMbps < a.BandwidthMinMbps {
			a.BandwidthMaxMbps = a.BandwidthMinMbps
		}
		if a.MaxLatencyMs <= 0 {
			a.MaxLatencyMs = 50
		}
		if a.F <= 0 {
			a.F = 1
		}
		rng := rand.New(rand.NewSource(s.Seed))
		uni := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
		t := 0.0 // seconds
		for i := 0; i < a.Count; i++ {
			t += rng.ExpFloat64() / a.RatePerS
			mbs := strings.Split(a.Templates[i%len(a.Templates)], "+")
			for j := range mbs {
				mbs[j] = strings.TrimSpace(mbs[j])
			}
			out = append(out, ChainSpec{
				Name:               fmt.Sprintf("p%02d", i),
				Arrival:            time.Duration(t * float64(time.Second)),
				TTL:                ms(uni(a.TTLMinMs, a.TTLMaxMs)),
				BandwidthMbps:      uni(a.BandwidthMinMbps, a.BandwidthMaxMbps),
				MaxResponseLatency: ms(a.MaxLatencyMs),
				Users:              a.UsersMin + rng.Intn(a.UsersMax-a.UsersMin+1),
				Middleboxes:        mbs,
				F:                  a.F,
				DowntimeBudget:     ms(a.DowntimeMs),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Arrival != out[j].Arrival {
			return out[i].Arrival < out[j].Arrival
		}
		return out[i].Name < out[j].Name
	})
	seen := make(map[string]bool, len(out))
	for _, spec := range out {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("fleet: duplicate chain name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: scenario %s has no chains", s.Name)
	}
	return out, nil
}
