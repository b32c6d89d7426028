GO ?= go

.PHONY: all build test vet fmt doclint crossbuild race stress chaos control-chaos fuzz-short bench-check bench-pairs bench-fig5 bench-bridge loc ci

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Format gate: any file gofmt would rewrite fails the build. bench/ is the
# frozen harness and is not this tree's to reformat; .bench_build/ holds
# what bench-pairs extracted from other revisions.
fmt:
	@out=$$(gofmt -l . | grep -v -e '^bench/' -e '^\.bench_build/' || true); \
	  test -z "$$out" || { echo "gofmt would rewrite:"; echo "$$out"; exit 1; }

# Doc-comment lint: the deployment-path packages must keep every exported
# symbol documented (the README walkthrough links to their godoc), and so
# must the chaos harness, the orchestrator it drives (DESIGN.md §10), the
# experiment and middlebox catalogs, and the fleet broker with its JSON
# config surface — where every numeric scenario knob must also name its
# unit (Mbps, ms, ...) in the field's doc comment. Package comments must
# open canonically ("Package <name> ..." / "Command ...").
doclint:
	$(GO) run scripts/doclint.go internal/state internal/trans internal/chaos internal/orch \
		internal/exp internal/mbox internal/fleet cmd/ftcd cmd/ftcgen cmd/ftclab

# Cross-compile gate: the transport's Linux fast path (sendmmsg/recvmmsg,
# SO_REUSEPORT) lives behind build tags with portable fallbacks; compiling
# and vetting a non-Linux target proves the fallback files stay buildable
# so a tag or syscall leak cannot silently break other platforms. The fast
# path itself hand-lays kernel structs whose size_t fields change Go type
# with the word size (msghdr, cmsghdr, iovec) and carries per-GOARCH syscall
# numbers (sysnum_linux_*.go), so the transport is also built and vetted for
# a 32-bit and a second 64-bit linux target.
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=386 $(GO) build ./internal/trans/...
	GOOS=linux GOARCH=386 $(GO) vet ./internal/trans/...
	GOOS=linux GOARCH=arm64 $(GO) build ./internal/trans/...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/trans/...

# Race-check the packages that share frames and scratch buffers across
# goroutines: the pooled-frame ownership rules live here. internal/trans
# covers the burst tunnel (packing, socket drain, burst injection) and its
# burst-equivalence/crash tests; internal/state covers the swiss-table
# partitions and TTL wheels that the store's batches and the expiry driver
# share;
# internal/fleet covers the broker's TTL-expiry-vs-crash-recovery locking;
# internal/mbox covers middleboxes filling Txn.Write buffers from two
# workers' batches at once (one shared store per middlebox).
race:
	$(GO) test -race ./internal/netsim/... ./internal/core/... ./internal/trans/... ./internal/orch/... ./internal/state/... ./internal/fleet/... ./internal/mbox/...

# Scheduler stress gate: the burst and worker-count equivalence proofs
# (delivered sets + state digests identical to the per-packet reference at
# burst 32 and adaptive, with one worker and with two workers, one per
# ingress queue, under deterministic loss), three times under -race to
# shake out races that a single run can miss. Beside them, the path that
# has no queue: concurrent ingests into one replica (per-flow order,
# convergence) and its start/stop rules, in the fabric and over real
# sockets; per-flow order out of the chain, where the egress buffer holds
# packets in flow FIFOs, on ingest and on two queue workers; an idle chain,
# whose carriers must stop circulating once it has quiesced; the pending
# set that holds out-of-order frames (flow order, logs never behind
# frames, the fetch gate, deadlines); wound-wait's hand-off to
# the wounder (three white-box cases) and two batches bumping MazuNAT's
# shared counters, whose retries per flow setup must stay near zero;
# nat-mt's flow setup on a chain, which must need next to no repair (behind
# the stress build tag, so the plain suite does not run it); the piggyback
# diet's goodput floor and the fleet smoke scenario's p99 latency SLA,
# both of which depend on the host's load (also behind the stress tag);
# the Fig 6 shape, whose collapse was workers parked on logs queued
# behind themselves (the last three without -race, which the Fig 6 test
# skips under); and failure suspicion, where a dead data link must cost
# its successor a replacement and a slow link's suspicions must all be
# refuted, with no recovery.
stress:
	$(GO) test -race -count=3 -run 'TestBurstEquivalence|TestWorkersEquivalence' ./internal/core/
	$(GO) test -race -count=3 -run 'TestIngestConcurrentFlowsFIFO|TestChainEgressKeepsFlowOrder|TestIngestLifecycle|TestPending|TestIdleChainGoesSilent' ./internal/core/
	$(GO) test -race -count=3 -run 'TestMultiSocketPerFlowFIFO|TestStopAndCloseUnderIngestLoad' ./internal/trans/
	$(GO) test -race -count=3 -run 'TestHandoff|TestBatchFlowSetupContention' ./internal/state/
	$(GO) test -race -count=3 -tags stress -run TestFlowSetupNeedsNoRepair .
	$(GO) test -count=3 -tags stress -run TestDietGoodput ./internal/core/
	$(GO) test -count=3 -tags stress -run TestSmokeMeetsSLA ./internal/fleet/
	$(GO) test -count=5 -run TestFig6ShapeFTCBeatsFTMB ./internal/exp/
	$(GO) test -race -count=3 -run 'TestDeadDataLinkIsRecovered|TestSlowLinkSuspicionsAreRefuted' ./internal/orch/

# Decoder fuzz gate: replays the piggyback codec's seed corpus (every update
# kind, coalesced/elided logs, truncations, and a retired-v1 blob that must
# be rejected), the tunnel datagram decoder's (every damaged and padded
# tail) and the orchestrator member RPCs' (a negative log prefix, stale
# terms, garbage), then fuzzes each briefly for fresh inputs. Short and deterministic
# enough for every CI run; longer campaigns raise -fuzztime locally.
fuzz-short:
	$(GO) test ./internal/core -run='^FuzzMessageCodec$$' -count=1
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzMessageCodec$$' -fuzztime=5s
	$(GO) test ./internal/trans -run='^FuzzSplitFrames$$' -count=1
	$(GO) test ./internal/trans -run='^$$' -fuzz='^FuzzSplitFrames$$' -fuzztime=5s
	$(GO) test ./internal/orch -run='^FuzzMemberRPC$$' -count=1
	$(GO) test ./internal/orch -run='^$$' -fuzz='^FuzzMemberRPC$$' -fuzztime=5s

# Frozen-harness gate: bench/ is its own module that imports internal/*
# through a replace directive, so root `go build ./...` never compiles it.
# Vet and smoke-test it against this tree so a change outside bench/ that
# breaks the harness is caught before the benchmark pipeline runs.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Before/after on the frozen benchmark: N alternated parent/change pairs of
# one workload, seeds 1..N, the parent extracted under .bench_build/ and each
# side built by its own bench/run.sh; prints medians, quartiles,
# wins/ties/losses, bound and verdict per end-to-end metric
# (scripts/bench_pairs.sh). About 2 × N × 20 s.
#   make bench-pairs W=bridge3 PARENT=HEAD~1
W ?= bridge3
N ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs W=<workload> PARENT=<rev> [N=10]" >&2; exit 2; }
	bash scripts/bench_pairs.sh $(W) $(PARENT) $(N)

# Deterministic chaos campaigns under -race: CHAOS_COUNT consecutive seeds
# (any 2 cover f=1..2; 56 also run FlowTTL on and off and the leader kill at
# each recovery phase; every one audits that no recovery replaced a node
# the campaign neither crashed nor cut off, and logs refuted suspicions), and
# SOAK_SECONDS keeps extending the sweep for the nightly soak lane. Every
# failure prints a copy-pasteable single-seed repro command.
#   make chaos                       # pre-merge: 56 seeds, ~5 min
#   make chaos SOAK_SECONDS=600      # nightly: at least 10 min of seeds
#   make chaos CHAOS_COUNT=8         # quick sweep
CHAOS_COUNT  ?= 56
SOAK_SECONDS ?= 0
CHAOS_TIMEOUT := $(shell expr $(SOAK_SECONDS) + 1200)
chaos:
	$(GO) test -race ./internal/chaos/ -run TestChaosCampaign -v \
		-chaos.count=$(CHAOS_COUNT) -chaos.soak=$(SOAK_SECONDS) \
		-timeout $(CHAOS_TIMEOUT)s

# Control-plane chaos gate: the orchestrator-crash campaign matrix under
# -race — six curated seeds covering a leader kill at every replicated
# recovery phase (spawned/fetched/adopted), with and without also killing
# the successor mid-takeover (DESIGN.md §14), with the same false-recovery
# audit as the main sweep. Each failure prints the same
# copy-pasteable -chaos.seed repro as the main sweep. Fast enough (<2 min)
# to gate every PR.
control-chaos:
	$(GO) test -race ./internal/chaos/ -run TestControlChaosCampaign -v -timeout 120s -count=1

# Full throughput benchmark (Figure 5 reproduction) with allocation stats.
bench-fig5:
	$(GO) test . -run=NONE -bench=Fig5 -benchtime=2s -benchmem

# Multi-process transport benchmark: loopback tunnel throughput at
# burst=1 (per-packet datagrams) vs burst=32 (packed datagrams), crossing
# jumbo (8972) and real-Ethernet (1472) MTU budgets with the portable
# one-syscall-per-datagram transport (forced through the benchmark's
# in-package seam) vs the sendmmsg/recvmmsg path.
bench-bridge:
	$(GO) test ./internal/trans -run=NONE -bench=BridgeThroughput -benchtime=2s -benchmem

# Size ledger for the "least machinery" aim: non-test Go lines outside the
# frozen bench/, test lines, and the core.Config field count.
loc:
	@echo "non-test go lines: $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "_test.go lines:    $$(find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "core.Config fields: $$(awk '/^type Config struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z][A-Za-z]* /{n++} END{print n}' internal/core/config.go)"

# The full pre-merge gate: build, vet, the gofmt gate, doc lint, the
# cross-compile gate, the frozen bench/ harness check, the decoder fuzz
# gate, the race-sensitive packages under -race, the scheduler stress gate,
# the orchestrator-crash campaign matrix, and the whole test suite (whose
# testing.AllocsPerRun gates pin every hot path's allocations per op).
ci: build vet fmt doclint crossbuild bench-check fuzz-short race stress control-chaos test
