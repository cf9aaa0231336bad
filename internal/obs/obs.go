// Package obs is the repo's sim-time event tracer: fixed-capacity rings
// of events merged in canonical order and exported as Chrome trace_event
// JSON.
//
// The package is deliberately leaf-level — it imports nothing but the
// standard library and internal/wire (for command names in trace
// exports) — so every layer from the event kernel up can depend on it
// without cycles. It is also registered as a deterministic package for
// the lint suite: nothing in here may read the wall clock or global
// randomness. Events carry simulation time only.
//
// Recording is built to observe without perturbing: a Shard is a
// single-writer ring of fixed-size Event cells, so the enabled hot path
// costs one bounds-checked store and the disabled path one nil check.
// Tracing must never change simulation output — the golden-CSV and
// allocs/op gates pin that contract.
package obs

import "time"

// Kind classifies a trace event. Append new kinds, never renumber or
// reuse a retired value.
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
	// Values 7–9 belonged to the retired parallel-dispatch window kinds
	// and 10–13 to the retired fleet lease kinds. They stay reserved —
	// never reuse or renumber — and render as "unknown"; a new kind
	// appends from 14.
	_
	_
	_
	_
	_
	_
	_

	numKinds
)

// kindNames maps kinds to the names used in trace exports.
var kindNames = [numKinds]string{
	KindNone:      "none",
	KindSend:      "send",
	KindDeliver:   "deliver",
	KindDrop:      "drop",
	KindLoss:      "loss",
	KindFirstSeen: "first-seen",
	KindInject:    "inject",
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
	// time.Duration).
	At time.Duration
	// P1, P2, P3 are kind-specific payload words; see the Kind docs.
	P1, P2, P3 uint64
	// Kind classifies the event.
	Kind Kind
	// Code is a kind-specific sub-code: the wire command for message
	// events, zero otherwise.
	Code uint8
}
