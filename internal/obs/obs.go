// Package obs is the repo's telemetry layer: a fixed-capacity sim-time
// event tracer and a registry of counters, gauges and sketch-backed
// histograms with Prometheus text exposition.
//
// The package is deliberately leaf-level — it imports nothing but the
// standard library and internal/wire (for command names in trace
// exports) — so every layer from the event kernel up through the fleet
// can depend on it without cycles. It is also registered as a
// deterministic package for bcbpt-lint: nothing in here may read the
// wall clock or global randomness. Simulation code stamps events with
// virtual time; non-deterministic callers (the fleet, cmd binaries) may
// fill the separate Wall field from their own clocks.
//
// Recording is built to observe without perturbing: a Shard is a
// single-writer ring of fixed-size Event cells, so the enabled hot path
// costs one bounds-checked store and the disabled path one nil check.
// Tracing must never change simulation output — the golden-CSV and
// allocs/op gates pin that contract.
package obs

import "time"

// Kind classifies a trace event. The numeric values are part of the
// binary spool format; append new kinds, never renumber.
type Kind uint8

const (
	// KindNone is the zero Kind; it never appears in a recorded event.
	KindNone Kind = iota
	// KindSend is a message framed for delivery. Code is the wire
	// command, P1/P2 the source/destination node IDs, P3 the framed size
	// in bytes.
	KindSend
	// KindDeliver is a message arriving at its destination handler.
	// Code is the wire command, P1/P2 the source/destination node IDs.
	KindDeliver
	// KindDrop is a message dropped because an endpoint churned away
	// before delivery. Fields as KindDeliver.
	KindDrop
	// KindLoss is a message dropped by failure injection
	// (Config.LossProb). Fields as KindSend.
	KindLoss
	// KindFirstSeen is a node's inventory accepting a transaction for
	// the first time. P1 is the node ID, P2 the first 8 bytes of the
	// transaction hash.
	KindFirstSeen
	// KindInject is a measurement run handing its transaction to the
	// first connection. P1 is the receiving node ID, P2 the hash prefix,
	// P3 the run index.
	KindInject
	// Values 7–9 belonged to the retired parallel-dispatch window kinds.
	// They stay reserved — never reuse or renumber — so the lease kinds
	// keep values 10–13 and existing binary spools still decode; a spooled
	// event carrying one renders as "unknown".
	_
	_
	_
	// KindLeaseGrant is a fleet coordinator granting a unit lease.
	// P1 is the lease ID, P2 the unit ordinal. Sim time is zero; Wall
	// carries the coordinator clock.
	KindLeaseGrant
	// KindLeaseRenew is a heartbeat renewal. Fields as KindLeaseGrant.
	KindLeaseRenew
	// KindLeaseExpire is a lease passing its TTL and becoming
	// reassignable. Fields as KindLeaseGrant.
	KindLeaseExpire
	// KindLeaseCommit is a unit result committing. Fields as
	// KindLeaseGrant.
	KindLeaseCommit

	numKinds
)

// kindNames maps kinds to the names used in trace exports.
var kindNames = [numKinds]string{
	KindNone:        "none",
	KindSend:        "send",
	KindDeliver:     "deliver",
	KindDrop:        "drop",
	KindLoss:        "loss",
	KindFirstSeen:   "first-seen",
	KindInject:      "inject",
	KindLeaseGrant:  "lease-grant",
	KindLeaseRenew:  "lease-renew",
	KindLeaseExpire: "lease-expire",
	KindLeaseCommit: "lease-commit",
}

// String names the kind for exports and errors.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. The struct is fixed-size and value-typed
// so a ring of them is a single flat allocation and recording is one
// store — no pointers, nothing for the GC to scan.
type Event struct {
	// At is the simulation time of the event (sim.Time is an alias for
	// time.Duration). Zero for events outside simulation, e.g. fleet
	// lease lifecycle.
	At time.Duration
	// Wall is the wall-clock time in Unix nanoseconds, stamped only by
	// non-deterministic callers. Zero inside the simulation.
	Wall int64
	// P1, P2, P3 are kind-specific payload words; see the Kind docs.
	P1, P2, P3 uint64
	// Kind classifies the event.
	Kind Kind
	// Code is a kind-specific sub-code: the wire command for message
	// events, zero otherwise.
	Code uint8
}
