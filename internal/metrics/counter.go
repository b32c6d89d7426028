package metrics

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter with rate sampling,
// used to measure packets-per-second throughput. It is safe for concurrent
// use from any number of goroutines.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// RateSampler takes periodic rate samples of a counter, following the
// paper's methodology of reporting "the average of maximum throughput values
// measured every second in a 10 second interval" (§7.1). Intervals here are
// configurable so tests can run in milliseconds.
type RateSampler struct {
	c       *Counter
	last    uint64
	lastAt  time.Time
	samples []float64
}

// NewRateSampler starts sampling counter c from its current value.
func NewRateSampler(c *Counter) *RateSampler {
	return &RateSampler{c: c, last: c.Value(), lastAt: time.Now()}
}

// Sample records the rate since the previous sample (or construction).
func (s *RateSampler) Sample() float64 {
	now := time.Now()
	v := s.c.Value()
	dt := now.Sub(s.lastAt).Seconds()
	var r float64
	if dt > 0 {
		r = float64(v-s.last) / dt
	}
	s.last, s.lastAt = v, now
	s.samples = append(s.samples, r)
	return r
}

// Samples returns all recorded rate samples.
func (s *RateSampler) Samples() []float64 { return append([]float64(nil), s.samples...) }

// Max reports the maximum sampled rate, 0 if no samples.
func (s *RateSampler) Max() float64 {
	var m float64
	for _, v := range s.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean reports the mean sampled rate, 0 if no samples.
func (s *RateSampler) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// Gauge is a settable instantaneous value (e.g., queue depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
