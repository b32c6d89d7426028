// Package fleet is the chain broker: it runs many service function chains
// with dynamic lifecycles on one shared server pool. Chains arrive over
// time (explicitly scheduled or drawn from a seeded Poisson process), pass
// admission control against the pool's CPU and bandwidth capacity, get
// placed with cross-chain replica sharing (no server is allowed to become
// a dedicated replica host), carry classified traffic through a shared
// flow→chain steering node, survive mid-run server crashes via the
// orchestrator's recovery path, and are torn down when their TTL expires —
// with all per-flow middlebox state reclaimed through the replicated
// TTL-expiry path rather than dropped on the floor.
//
// The package layers on the single-chain machinery: core runs each chain's
// replication ring, orch recovers crashed replicas, tgen offers each
// chain's workload, and netsim provides the shared fabric. What fleet adds
// is the broker state machine (spec.go), the capacity model and placement
// policy (pool.go), steering (steer.go), the scenario JSON surface
// (scenario.go), and the run loop plus reporting (broker.go,
// report.go). DESIGN.md §12 specifies the invariants; `ftclab -fleet
// <scenario.json>` replays a scenario from the command line.
package fleet
