//go:build stress

package core

import (
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// TestDietGoodput is the piggyback diet's performance gate: on a counter
// chain, application bytes must stay at least 0.55 of all bytes put on chain
// links. Timer-driven carriers and commit refreshes make the ratio depend on
// how fast the run is, so the floor sits between the two bands measured at
// commit 38365d2 across plain and -race runs: the retired fixed-width v1
// wire read 0.41–0.49 on this chain, the diet 0.60–0.72.
// For that reason it is built with -tags stress: make stress runs it, the
// plain suite does not.
func TestDietGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("goodput measurement")
	}
	mbs := []Middlebox{
		&countDeltaMB{countMB{"c0"}},
		&dietFlowMB{"fc:"},
		&countDeltaMB{countMB{"c2"}},
	}
	h := newHarness(t, testConfig(), mbs, netsim.Config{})
	const n = 600
	h.sendPackets(t, n)
	h.collect(t, n, 20*time.Second)
	waitForQuiescence(t, h, n)
	var app, wireB uint64
	for i := 0; i < h.chain.Len(); i++ {
		s := h.chain.Replica(i).Stats()
		app += s.AppBytesOut.Load()
		wireB += s.WireBytesOut.Load()
	}
	goodput := float64(app) / float64(wireB)
	t.Logf("goodput %.4f (%d/%d)", goodput, app, wireB)
	if goodput < 0.55 {
		t.Fatalf("goodput %.4f < 0.55", goodput)
	}
}
