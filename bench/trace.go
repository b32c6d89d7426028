package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. The harness records a span around every call it makes into
// the program; spans inside the program are a later change.
const (
	spanRun = iota
	spanSetup
	spanPing
	spanChunk
	spanWait
	spanDrain
	spanSlice
	spanCrash
	spanQuiesce
	spanChecks
	spanReplay
	// Layer replay, one span per layer per burst.
	spanParse
	spanRSS
	spanTrailer
	spanProcess
	spanExec
	spanHeadTxn
	spanEncode
	spanDecode
	spanApply
	spanHop
	spanPool
	spanPack
	spanBridgeHop
	spanCalibrate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "setup", "pingpong", "pump.chunk", "pump.wait", "pump.drain", "slice",
	"crash.report", "quiesce", "checks", "replay",
	"wire.parse", "wire.rss", "wire.trailer", "mbox.process", "state.exec",
	"core.head_txn", "core.encode", "core.decode", "core.follower_apply",
	"netsim.hop", "netsim.pool", "trans.pack", "trans.hop", "calibrate",
}

type span struct {
	name   uint8
	parent int32 // index of the span that caused this one, -1 for none
	phase  int32 // phase id shared by the spans of one phase
	n      int32 // packets or calls the span covers
	start  int64 // ns since the tracer's base
	end    int64
}

// tracer keeps spans in memory and writes them when the run ends. It is
// used from the generator goroutine only. A nil tracer records nothing, so
// untraced runs pay one nil check per call.
type tracer struct {
	base  time.Time
	spans []span
	cur   int32 // innermost open span
	phase int32
	on    bool
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<18), cur: -1, on: true}
}

func (t *tracer) begin(name uint8) int32 {
	if t == nil || !t.on {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.cur, phase: t.phase, start: int64(time.Since(t.base))})
	t.cur = i
	return i
}

func (t *tracer) end(i int32, n int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.base))
	s.n = int32(n)
	t.cur = s.parent
}

// nextPhase opens a new phase id for the spans that follow.
func (t *tracer) nextPhase() {
	if t != nil {
		t.phase++
	}
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on = on
	}
}

// selfTimes returns, per span name, total self time (duration minus the
// part child spans cover) and the total of n.
func (t *tracer) selfTimes() (self [numSpanNames]int64, n [numSpanNames]int64) {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		self[s.name] += s.end - s.start - child[i]
		n[s.name] += int64(s.n)
	}
	return self, n
}

// write stores the spans as JSON: a name table and one row per span,
// [name, start_ns, end_ns, parent, phase, n].
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names, _ := json.Marshal(spanNames[:])
	fmt.Fprintf(w, "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"phase\",\"n\"],\n\"names\":%s,\n\"spans\":[\n", names)
	for i := range t.spans {
		s := &t.spans[i]
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]%s\n", s.name, s.start, s.end, s.parent, s.phase, s.n, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
