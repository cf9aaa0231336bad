package p2p

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Stats aggregates traffic counters for a network, keyed by command.
// The overhead experiment (§IV.A: "to measure the distance between nodes
// in ping latency requires every pair of nodes to interact, which added an
// extra overhead") reads these.
type Stats struct {
	// Messages counts frames sent per command.
	Messages [16]uint64
	// Bytes counts framed bytes sent per command.
	Bytes [16]uint64
	// Dropped counts messages lost because an endpoint churned away.
	Dropped uint64
	// Lost counts messages dropped by failure injection (Config.LossProb).
	Lost uint64
}

func (s *Stats) count(cmd wire.Command, size int) {
	if int(cmd) < len(s.Messages) {
		s.Messages[cmd]++
		s.Bytes[cmd] += uint64(size)
	}
}

// TotalMessages sums frames across all commands.
func (s Stats) TotalMessages() uint64 {
	var t uint64
	for _, v := range s.Messages {
		t += v
	}
	return t
}

// TotalBytes sums framed bytes across all commands.
func (s Stats) TotalBytes() uint64 {
	var t uint64
	for _, v := range s.Bytes {
		t += v
	}
	return t
}

// PingTraffic returns the measurement overhead: ping+pong frames and bytes.
func (s Stats) PingTraffic() (msgs, bytes uint64) {
	msgs = s.Messages[wire.CmdPing] + s.Messages[wire.CmdPong]
	bytes = s.Bytes[wire.CmdPing] + s.Bytes[wire.CmdPong]
	return msgs, bytes
}

// Sub returns s - prev, for measuring an interval between two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	var d Stats
	for i := range s.Messages {
		d.Messages[i] = s.Messages[i] - prev.Messages[i]
		d.Bytes[i] = s.Bytes[i] - prev.Bytes[i]
	}
	d.Dropped = s.Dropped - prev.Dropped
	d.Lost = s.Lost - prev.Lost
	return d
}

// String renders a compact per-command table.
func (s Stats) String() string {
	type row struct {
		cmd  wire.Command
		n, b uint64
	}
	var rows []row
	for i := range s.Messages {
		if s.Messages[i] > 0 {
			rows = append(rows, row{wire.Command(i), s.Messages[i], s.Bytes[i]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10d msgs %12d B\n", r.cmd, r.n, r.b)
	}
	fmt.Fprintf(&b, "%-8s %10d msgs %12d B (dropped %d)\n", "total", s.TotalMessages(), s.TotalBytes(), s.Dropped)
	return b.String()
}

// NodeFootprintBytes sums the retained bytes of every node's hot state —
// the node, its adjacency table (free list included, threaded through the
// free entries), flat inventory arrays, holder bitsets, spill sets,
// ticket slots, pong tickets — without the shared network-level state
// (hash registry, object and place tables, in-flight records, probe sets).
// Divided by NumNodes it is the marginal cost of one more node, the number
// the 100k-node budget test pins so the flat layout cannot quietly regrow
// pointer-rich per-node state.
func (n *Network) NodeFootprintBytes() int {
	var total uintptr
	for _, nd := range n.slots {
		if nd == nil {
			continue
		}
		total += unsafe.Sizeof(*nd)
		total += uintptr(cap(nd.peerTab)) * unsafe.Sizeof(peerEntry{})
		total += uintptr(cap(nd.inv.entries)) * unsafe.Sizeof(invEntry{})
		total += uintptr(cap(nd.inv.holderBits)) * unsafe.Sizeof(uint64(0))
		total += uintptr(len(nd.inv.spill)) * (unsafe.Sizeof(spillFact{}) + 8)
	}
	// The ticket slots are per-position state of the nodes too, whoever
	// holds the pool.
	for _, chunk := range n.dc.tickets.chunks {
		total += uintptr(len(chunk)) * unsafe.Sizeof(sim.Ticket{})
	}
	// So are the pong tickets, held per prober slot.
	total += uintptr(cap(n.pongs.bySlot)) * unsafe.Sizeof(int32(0))
	for _, list := range n.pongs.lists {
		total += uintptr(cap(list)) * unsafe.Sizeof(pongTicket{})
	}
	return int(total)
}
