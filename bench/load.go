package main

import (
	"runtime"
	"sort"
	"time"
)

const (
	// window and chunk shape the closed loop: at most window packets in
	// flight, offered chunk at a time. The window stays below every queue
	// on the path, so nothing tail-drops.
	window = 512
	chunk  = 32
	// idleSleep is how long the generator sleeps when the window is full.
	// It never spins: on a 2-CPU box a spinning generator takes a whole
	// core from the system under test.
	idleSleep = 50 * time.Microsecond
	// opDeadline bounds every wait: a packet not delivered this long after
	// the sink last made progress is a failed operation and its credit is
	// returned, so loss can never hang a run.
	opDeadline = 2 * time.Second
)

// driver offers load to one sut from one goroutine and accounts for every
// packet it sent: delivered, or written off as failed.
type driver struct {
	s      *sut
	tr     *tracer
	cursor int    // round-robin flow index
	gone   uint64 // packets no longer expected at the sink
	failed uint64 // those of gone that count as failed operations
}

func (d *driver) inFlight() int {
	n := int64(d.s.gen.Sent()) - int64(d.s.sink.Received()) - int64(d.gone)
	if n < 0 {
		return 0
	}
	return int(n)
}

// waitBelow sleeps until fewer than limit packets are in flight, writing
// off whatever is still missing once the sink has stalled for opDeadline.
func (d *driver) waitBelow(limit int) {
	last, since := d.s.sink.Received(), time.Now()
	for d.inFlight() >= limit {
		time.Sleep(idleSleep)
		if r := d.s.sink.Received(); r != last {
			last, since = r, time.Now()
		} else if time.Since(since) > opDeadline {
			d.writeOff(true)
			return
		}
	}
}

// writeOff stops expecting whatever is in flight. In the closed loop and
// the ping-pong that is a failed operation; after an open-loop phase it is
// the loss that delivered_ratio reports.
func (d *driver) writeOff(failed bool) {
	n := uint64(d.inFlight())
	d.gone += n
	if failed {
		d.failed += n
	}
}

func (d *driver) drain() {
	sp := d.tr.begin(spanDrain)
	d.waitBelow(1)
	d.tr.end(sp, 0)
}

// closedFor runs the closed loop for dur, then drains, and returns how many
// packets it offered.
func (d *driver) closedFor(dur time.Duration) uint64 {
	end := time.Now().Add(dur)
	return d.closed(func(uint64) bool { return !time.Now().Before(end) })
}

// closedCount offers n packets through the closed loop, rounded up to whole
// chunks.
func (d *driver) closedCount(n uint64) uint64 {
	return d.closed(func(sent uint64) bool { return sent >= n })
}

func (d *driver) closed(done func(sent uint64) bool) uint64 {
	var sent uint64
	for !done(sent) {
		if d.inFlight()+chunk > window {
			sp := d.tr.begin(spanWait)
			d.waitBelow(window - chunk + 1)
			d.tr.end(sp, 0)
			continue
		}
		sp := d.tr.begin(spanChunk)
		n, err := d.s.gen.SendChunk(d.cursor, chunk)
		d.tr.end(sp, n)
		if err != nil {
			break
		}
		d.cursor += n
		sent += uint64(n)
	}
	d.drain()
	return sent
}

// pingPong sends one packet at a time for dur and times each until the sink
// has it. The waiter yields instead of sleeping: a sleep is coarser than
// the latencies measured.
func (d *driver) pingPong(dur time.Duration) (samples []time.Duration) {
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		want := d.s.sink.Received() + 1
		sp := d.tr.begin(spanPing)
		t0 := time.Now()
		if err := d.s.gen.SendOne(d.cursor); err != nil {
			d.tr.end(sp, 0)
			break
		}
		d.cursor++
		ok := true
		for spins := 1; d.s.sink.Received() < want; spins++ {
			runtime.Gosched()
			if spins%4096 == 0 && time.Since(t0) > opDeadline {
				d.writeOff(true)
				ok = false
				break
			}
		}
		lat := time.Since(t0)
		d.tr.end(sp, 1)
		if ok {
			samples = append(samples, lat)
		}
	}
	return samples
}

// openLoop offers rate packets a second for dur on a fixed schedule,
// whatever the system delivers, and returns how many it offered and how
// late each batch left compared with its due time. every, when set, runs on
// the generator goroutine between batches (the crash schedule uses it).
func (d *driver) openLoop(rate float64, dur time.Duration, every func(elapsed time.Duration)) (offered uint64, late []time.Duration) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for {
		now := time.Since(start)
		if now >= dur {
			return offered, late
		}
		if every != nil {
			every(now)
		}
		// Everything due by now and not yet offered goes out.
		due := uint64(now/interval) + 1
		if due > offered {
			late = append(late, now-time.Duration(offered)*interval)
		}
		for offered < due {
			n := int(due - offered)
			if n > chunk {
				n = chunk
			}
			sent, err := d.s.gen.SendChunk(d.cursor, n)
			if err != nil {
				return offered, late
			}
			d.cursor += sent
			offered += uint64(sent)
		}
		time.Sleep(idleSleep)
	}
}

// settle waits, after an open-loop phase, until the sink stops receiving,
// and stops expecting the rest.
func (d *driver) settle() {
	last, since := d.s.sink.Received(), time.Now()
	for d.inFlight() > 0 && time.Since(since) < 100*time.Millisecond {
		time.Sleep(time.Millisecond)
		if r := d.s.sink.Received(); r != last {
			last, since = r, time.Now()
		}
	}
	d.writeOff(false)
}

func durMean(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// durQuantile returns the q-quantile of v, which it sorts.
func durQuantile(v []time.Duration, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[int(q*float64(len(v)-1))])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
